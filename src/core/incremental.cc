#include "core/incremental.h"

#include <algorithm>
#include <string>

#include "core/hybrid_loop.h"
#include "core/sampler.h"
#include "util/check.h"
#include "util/timer.h"

namespace hyfd {

IncrementalHyFd::IncrementalHyFd(Relation relation, IncrementalConfig config)
    : config_(config),
      relation_(std::move(relation)),
      tree_(relation_.num_columns()) {
  HYFD_CHECK(relation_.num_columns() > 0,
             "IncrementalHyFd: relation must have at least one column");
  HYFD_AUDIT_ONLY(relation_.CheckInvariants());

  Timer total_timer;
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(config_.num_threads));
  }
  if (config_.enable_pli_cache) {
    PliCache::Config cache_config;
    cache_config.budget_bytes = config_.pli_cache_budget_bytes;
    cache_config.thread_safe = config_.num_threads > 1;
    // Singles-less shape (as HyFd's owned cache): only Validator-assembled
    // LHS partitions are stored, and — unlike a pinned-singles cache — it
    // can legally re-bind to the grown data after every batch. Seed() binds
    // it to the data.
    cache_ = std::make_unique<PliCache>(relation_.num_columns(),
                                        relation_.num_rows(), cache_config,
                                        config_.null_semantics);
  }
  const PliCacheDelta cache_delta(cache_.get());
  Seed();

  // stats_ keeps the seeding run's sampling/validation attribution (it was
  // zeroed here once, which made the seed report claim zero work).
  FillReport(total_timer.ElapsedSeconds(), cache_delta);
}

void IncrementalHyFd::Reseed() {
  if (num_live_rows_ != relation_.num_rows()) {
    // A reseed rebuilds value identity from scratch, so this is the one
    // place tombstones are physically compacted away: the relation shrinks
    // to its live rows (in id order) and row ids re-anchor to the compacted
    // relation.
    relation_ = LiveRelation();
  }

  // Discovery attribution restarts from zero: stats_ already carries this
  // batch's identity (batch_rows, deleted_rows, append timing), and the full
  // re-discovery below must not stack on top of in-flight counters.
  stats_ = IncrementalBatchStats{.batch_rows = stats_.batch_rows,
                                 .deleted_rows = stats_.deleted_rows,
                                 .reseeded = true,
                                 .append_seconds = stats_.append_seconds};
  Seed();
}

void IncrementalHyFd::Seed() {
  live_.assign(relation_.num_rows(), 1);
  num_live_rows_ = relation_.num_rows();
  data_ = Preprocess(relation_, config_.null_semantics);
  tree_ = FDTree(relation_.num_columns());
  negative_cover_.clear();
  // A fresh Inductor seeds the most general FDs ∅ → A on its first Update
  // over the fresh tree.
  inductor_ = std::make_unique<Inductor>(&tree_, &metrics_);
  if (cache_ != nullptr) {
    cache_->Rebind(DataFingerprint(relation_, data_.records),
                   data_.num_records);
  }

  // HyFd::Discover's phases, minus the memory guardian (a pruned tree would
  // silently break the incremental equivalence guarantee, so the session
  // never prunes), plus the witnesses: every fresh agree set enters the
  // witnessed cover with its record pair. The Validator stamps `confirmed` on
  // everything it proves, which is exactly the seed state ApplyBatch needs.
  metrics_.Reset();
  Sampler sampler(&data_, config_.efficiency_threshold,
                  SamplingStrategy::kClusterWindowing, pool_.get(), &metrics_);
  Validator validator(&data_, &tree_, config_.efficiency_threshold,
                      pool_.get(), cache_.get(), &metrics_);
  HybridLoopOutcome loop = RunHybridLoop(
      &tree_,
      [&](RecordPairs suggestions) {
        std::vector<SampledNonFd> found = sampler.RunWithWitnesses(suggestions);
        std::vector<AttributeSet> batch;
        batch.reserve(found.size());
        for (SampledNonFd& non_fd : found) {
          negative_cover_.emplace(non_fd.agree,
                                  std::make_pair(non_fd.a, non_fd.b));
          batch.push_back(std::move(non_fd.agree));
        }
        inductor_->Update(std::move(batch));
      },
      [&] { return validator.Run(); });
  loop.AddTo(&stats_);
  stats_.comparisons = sampler.total_comparisons();
  stats_.validations = validator.total_validations();
  // Fold the final pass's violation suggestions into the witnessed cover.
  // The tree is already settled (any agree set these pairs produce can only
  // restate known constraints), but the extra witnesses keep more of the
  // cover alive across future deletes.
  MatchPairs(std::move(loop.last_suggestions));

  // The Validator confirmed every node it settled; make the seed state
  // explicit (and audited) regardless of the path that produced it.
  tree_.ConfirmAll();
  fds_ = tree_.ToFdSet();
  BuildColumnStates();
  identity_epoch_ = relation_.IdentityEpoch();
}

void IncrementalHyFd::BuildColumnStates() {
  const int m = data_.num_attributes;
  const size_t n = data_.num_records;
  column_states_.assign(static_cast<size_t>(m), ColumnState{});
  for (int c = 0; c < m; ++c) {
    ColumnState& state = column_states_[static_cast<size_t>(c)];
    const std::vector<uint32_t>& codes = relation_.segment(c).codes();
    const std::vector<ClusterId> probing =
        data_.plis[static_cast<size_t>(c)].BuildProbingTable();
    for (size_t r = 0; r < n; ++r) {
      const ClusterId cid = probing[r];
      const uint32_t code = codes[r];
      if (code == kNullCode) {
        // Under kNullUnequal every NULL stays a stripped singleton forever:
        // no future row can join it, so it needs no index entry.
        if (config_.null_semantics == NullSemantics::kNullUnequal) continue;
        if (cid != kUniqueCluster) {
          state.has_null_cluster = true;
          state.null_cluster = static_cast<uint32_t>(cid);
        } else {
          state.has_null_singleton = true;
          state.null_record = static_cast<RecordId>(r);
        }
        continue;
      }
      if (cid != kUniqueCluster) {
        state.cluster_of[code] = static_cast<uint32_t>(cid);
      } else {
        state.singleton_of[code] = static_cast<RecordId>(r);
      }
    }
  }
}

void IncrementalHyFd::GrowDerivedState(size_t old_n, size_t new_n,
                                       Validator::ClusterDelta* delta) {
  const int m = data_.num_attributes;
  delta->first_new_record = static_cast<RecordId>(old_n);
  delta->touched.assign(static_cast<size_t>(m), {});
  data_.records.Append(new_n);

  for (int c = 0; c < m; ++c) {
    ColumnState& state = column_states_[static_cast<size_t>(c)];
    Pli& pli = data_.plis[static_cast<size_t>(c)];
    const size_t old_cluster_count = pli.clusters().size();

    std::vector<std::pair<uint32_t, RecordId>> appends;
    std::vector<std::vector<RecordId>> new_clusters;
    std::vector<uint32_t>& touched = delta->touched[static_cast<size_t>(c)];

    // Routes new record `r` into cluster `ci` — a pre-existing cluster goes
    // through Pli::AppendRows' append list, a cluster created earlier in
    // this same batch is still local and grows directly.
    auto join = [&](uint32_t ci, RecordId r) {
      if (ci < old_cluster_count) {
        appends.emplace_back(ci, r);
      } else {
        new_clusters[ci - old_cluster_count].push_back(r);
      }
      touched.push_back(ci);
    };
    // Promotes `partner` (an old or in-batch singleton) and `r` into a brand
    // new cluster; returns its index.
    auto promote = [&](RecordId partner, RecordId r) {
      const uint32_t ci =
          static_cast<uint32_t>(old_cluster_count + new_clusters.size());
      new_clusters.push_back({partner, r});
      touched.push_back(ci);
      return ci;
    };

    const std::vector<uint32_t>& codes = relation_.segment(c).codes();
    for (size_t r = old_n; r < new_n; ++r) {
      const RecordId rid = static_cast<RecordId>(r);
      const uint32_t code = codes[r];
      if (code == kNullCode) {
        if (config_.null_semantics == NullSemantics::kNullUnequal) continue;
        if (state.has_null_cluster) {
          join(state.null_cluster, rid);
        } else if (state.has_null_singleton) {
          state.null_cluster = promote(state.null_record, rid);
          state.has_null_cluster = true;
          state.has_null_singleton = false;
        } else {
          state.has_null_singleton = true;
          state.null_record = rid;
        }
        continue;
      }
      if (auto it = state.cluster_of.find(code); it != state.cluster_of.end()) {
        join(it->second, rid);
      } else if (auto single = state.singleton_of.find(code);
                 single != state.singleton_of.end()) {
        state.cluster_of.emplace(code, promote(single->second, rid));
        state.singleton_of.erase(single);
      } else {
        state.singleton_of.emplace(code, rid);
      }
    }

    // Stamp the compressed records before the clusters are moved out: new
    // rows joining pre-existing clusters, plus every member of a new cluster
    // (covering old singletons promoted by a matching new row, whose cell
    // still reads kUniqueCluster).
    for (const auto& [ci, rid] : appends) {
      data_.records.SetCluster(rid, c, static_cast<ClusterId>(ci));
    }
    for (size_t i = 0; i < new_clusters.size(); ++i) {
      const ClusterId ci = static_cast<ClusterId>(old_cluster_count + i);
      for (RecordId member : new_clusters[i]) {
        data_.records.SetCluster(member, c, ci);
      }
    }
    pli.AppendRows(new_n, appends, std::move(new_clusters));

    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    stats_.touched_clusters += touched.size();
  }

  data_.num_records = new_n;
  data_.source_version = relation_.version();
  // Appends can reorder the cluster-count ranking the pivot choice uses.
  data_.RecomputeRanks();
  HYFD_AUDIT_ONLY({
    for (const Pli& pli : data_.plis) pli.CheckInvariants();
    data_.records.CheckInvariants(data_.plis);
  });
}

std::vector<AttributeSet> IncrementalHyFd::MatchPairs(RecordPairs pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<AttributeSet> new_non_fds;
  AttributeSet agree(data_.num_attributes);
  for (const auto& [a, b] : pairs) {
    data_.records.MatchInto(a, b, &agree);
    ++stats_.comparisons;
    if (negative_cover_.emplace(agree, std::make_pair(a, b)).second) {
      new_non_fds.push_back(agree);
    }
  }
  return new_non_fds;
}

const FDSet& IncrementalHyFd::ApplyBatch(
    const std::vector<std::vector<std::optional<std::string>>>& rows) {
  return ApplyCrud(rows, {}, {});
}

const FDSet& IncrementalHyFd::DeleteRows(const std::vector<RecordId>& ids) {
  return ApplyCrud({}, ids, {});
}

const FDSet& IncrementalHyFd::UpdateRows(
    const std::vector<
        std::pair<RecordId, std::vector<std::optional<std::string>>>>&
        updates) {
  return ApplyCrud({}, {}, updates);
}

const FDSet& IncrementalHyFd::ApplyMixed(
    const std::vector<std::vector<std::optional<std::string>>>& inserts,
    const std::vector<RecordId>& deletes,
    const std::vector<
        std::pair<RecordId, std::vector<std::optional<std::string>>>>&
        updates) {
  return ApplyCrud(inserts, deletes, updates);
}

bool IncrementalHyFd::IsRowLive(RecordId id) const {
  HYFD_CHECK(static_cast<size_t>(id) < live_.size(),
             "IncrementalHyFd::IsRowLive: row id out of range");
  return live_[id] != 0;
}

Relation IncrementalHyFd::LiveRelation() const {
  if (num_live_rows_ == relation_.num_rows()) return relation_;
  std::vector<std::vector<std::optional<std::string>>> rows;
  rows.reserve(num_live_rows_);
  const size_t n = relation_.num_rows();
  const int m = relation_.num_columns();
  for (size_t r = 0; r < n; ++r) {
    if (live_[r] == 0) continue;
    auto& row = rows.emplace_back();
    row.reserve(static_cast<size_t>(m));
    for (int c = 0; c < m; ++c) {
      if (relation_.IsNull(r, c)) {
        row.emplace_back(std::nullopt);
      } else {
        row.emplace_back(relation_.Value(r, c));
      }
    }
  }
  return Relation::FromRows(relation_.schema(), rows);
}

void IncrementalHyFd::set_pli_cache_budget_bytes(size_t budget_bytes) {
  if (cache_ != nullptr) cache_->set_budget_bytes(budget_bytes);
}

const FDSet& IncrementalHyFd::ApplyCrud(
    const std::vector<std::vector<std::optional<std::string>>>& inserts,
    const std::vector<RecordId>& deletes,
    const std::vector<
        std::pair<RecordId, std::vector<std::optional<std::string>>>>&
        updates) {
  // Reject the whole batch before mutating anything: a mid-batch width or
  // id failure would leave the relation half-grown.
  const auto check_width =
      [&](const std::vector<std::optional<std::string>>& row) {
        HYFD_CHECK(row.size() == static_cast<size_t>(relation_.num_columns()),
                   "IncrementalHyFd: row width does not match the schema");
      };
  for (const auto& row : inserts) check_width(row);
  for (const auto& [id, row] : updates) check_width(row);

  // Dead rows: explicit deletes plus the old versions of updates. Every id
  // must name a distinct live physical row.
  std::vector<RecordId> dead;
  dead.reserve(deletes.size() + updates.size());
  dead.insert(dead.end(), deletes.begin(), deletes.end());
  for (const auto& [id, row] : updates) dead.push_back(id);
  {
    std::vector<uint8_t> claimed(relation_.num_rows(), 0);
    for (RecordId id : dead) {
      HYFD_CHECK(static_cast<size_t>(id) < relation_.num_rows(),
                 "IncrementalHyFd: delete/update id out of range");
      HYFD_CHECK(live_[id] != 0,
                 "IncrementalHyFd: delete/update of an already-dead row");
      HYFD_CHECK(claimed[id] == 0,
                 "IncrementalHyFd: row deleted/updated twice in one batch");
      claimed[id] = 1;
    }
  }
  // Detect out-of-band mutation of the owned relation (or derived state)
  // before building on top of it.
  data_.CheckSyncedWith(relation_);

  Timer total_timer;
  Timer timer;
  ++num_batches_;
  stats_ = IncrementalBatchStats{};
  stats_.batch_rows = inserts.size() + updates.size();
  stats_.deleted_rows = dead.size();
  metrics_.Reset();
  const PliCacheDelta cache_delta(cache_.get());

  if (inserts.empty() && updates.empty() && dead.empty()) {
    FillReport(total_timer.ElapsedSeconds(), cache_delta);
    return fds_;
  }

  // --- 1. Append new rows, tombstone dead ones. ----------------------------
  const size_t old_n = data_.num_records;
  for (const auto& row : inserts) relation_.AppendRow(row);
  for (const auto& [id, row] : updates) relation_.AppendRow(row);
  const size_t new_n = relation_.num_rows();
  live_.resize(new_n, 1);
  num_live_rows_ += new_n - old_n;
  for (RecordId id : dead) {
    live_[id] = 0;
    --num_live_rows_;
  }

  if (relation_.IdentityEpoch() != identity_epoch_) {
    // The batch widened a numeric column to string and split codes of
    // pre-batch rows ("07" and "7" were one int value, now two lexemes).
    // Every piece of derived state — PLIs, compressed records, the tree's
    // confirmed proofs, the negative cover's agree sets — was computed under
    // the old identity and may be wrong, so grow-in-place is unsound.
    // Rebuild everything from the (rare) changed relation instead; Reseed
    // also compacts away this batch's tombstones.
    stats_.append_seconds = timer.ElapsedSeconds();
    Reseed();
    FillReport(total_timer.ElapsedSeconds(), cache_delta);
    return fds_;
  }

  // --- 2. Shrink, then grow, the derived state in place. -------------------
  if (!dead.empty()) ShrinkDerivedState(dead);
  Validator::ClusterDelta delta;
  GrowDerivedState(old_n, new_n, &delta);
  if (cache_ != nullptr) {
    // Every cached partition describes the pre-batch rows; the fingerprint
    // changed, so Rebind drops them all (Counters::stale_drops).
    cache_->Rebind(DataFingerprint(relation_, data_.records), new_n);
  }
  stats_.append_seconds = timer.ElapsedSeconds();

  // Deletes can make FDs valid: repair the cover downward before the loop.
  timer.Restart();
  const FDSet fds_before = dead.empty() ? FDSet{} : fds_;
  if (!dead.empty()) RepairCoverAfterDeletes();

  // --- 3. Targeted pairs: only pairs involving a new row. -----------------
  // Within each touched cluster, every new member (ids ≥ old_n sort to the
  // tail) is matched against its predecessor and against the cluster's first
  // record — the same neighbor heuristic cluster-windowing starts from, here
  // restricted to windows that contain a new row. Completeness of the final
  // FD set never depends on this selection (the Validator settles every
  // candidate); it only seeds the negative cover cheaply.
  RecordPairs pairs;
  for (int c = 0; c < data_.num_attributes; ++c) {
    const auto& clusters = data_.plis[static_cast<size_t>(c)].clusters();
    for (uint32_t ci : delta.touched[static_cast<size_t>(c)]) {
      const std::vector<RecordId>& cluster = clusters[ci];
      const auto first_new =
          std::lower_bound(cluster.begin(), cluster.end(),
                           static_cast<RecordId>(old_n));
      for (auto it = first_new; it != cluster.end(); ++it) {
        const size_t i = static_cast<size_t>(it - cluster.begin());
        if (i == 0) continue;  // a cluster of only-new rows: no predecessor
        pairs.emplace_back(cluster[i - 1], cluster[i]);
        if (i > 1) pairs.emplace_back(cluster[0], cluster[i]);
      }
    }
  }
  stats_.sampling_seconds += timer.ElapsedSeconds();

  // --- 4. Hybrid loop seeded from the (repaired) tree. ---------------------
  // Phase 1 matches exactly the pairs it is given — first the targeted
  // pairs, then the Validator's violation suggestions, which already
  // pinpoint the disagreeing pairs, instead of a fresh sampling sweep. FDs
  // with a surviving proof take the restricted touched-clusters check — on
  // a pure-delete batch every touched list is empty, so they validate at
  // zero scan cost; generalization candidates and freshly specialized
  // candidates get the full check.
  Validator validator(&data_, &tree_, config_.efficiency_threshold,
                      pool_.get(), cache_.get(), &metrics_);
  validator.set_delta(&delta);
  HybridLoopOutcome loop = RunHybridLoop(
      &tree_,
      [&](RecordPairs suggestions) {
        stats_.fds_invalidated +=
            inductor_->Update(MatchPairs(std::move(suggestions)));
      },
      [&] { return validator.Run(); }, std::move(pairs));
  loop.AddTo(&stats_);
  stats_.fds_invalidated += validator.delta_invalidated();
  stats_.fds_revalidated = validator.restricted_validations();
  stats_.validations = validator.total_validations();
  // Fold the final pass's violation suggestions into the witnessed cover
  // (tree no-op — the loop is settled — but richer witnesses survive more
  // future deletes).
  MatchPairs(std::move(loop.last_suggestions));
  HYFD_AUDIT_ONLY(if (cache_ != nullptr) cache_->CheckInvariants());

  fds_ = tree_.ToFdSet();
  if (!dead.empty()) {
    for (const FD& fd : fds_) {
      if (!fds_before.Contains(fd)) ++stats_.fds_generalized;
    }
  }
  FillReport(total_timer.ElapsedSeconds(), cache_delta);
  return fds_;
}

void IncrementalHyFd::ShrinkDerivedState(const std::vector<RecordId>& dead) {
  const int m = data_.num_attributes;
  std::vector<std::pair<uint32_t, RecordId>> removals;
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  std::vector<uint32_t> emptied;
  std::vector<int32_t> remap;
  for (int c = 0; c < m; ++c) {
    ColumnState& state = column_states_[static_cast<size_t>(c)];
    Pli& pli = data_.plis[static_cast<size_t>(c)];
    const std::vector<uint32_t>& codes = relation_.segment(c).codes();

    // Classify each dead row in this column — cluster member vs implicit
    // singleton — from its compressed cell (wiped only after all columns).
    removals.clear();
    for (RecordId r : dead) {
      const ClusterId cid = data_.records.Cluster(r, c);
      if (cid != kUniqueCluster) {
        removals.emplace_back(static_cast<uint32_t>(cid), r);
        continue;
      }
      // The dead row was an implicit singleton: drop its value-index entry
      // so a future equal insert cannot resurrect it as a cluster partner.
      const uint32_t code = codes[r];
      if (code == kNullCode) {
        if (config_.null_semantics == NullSemantics::kNullUnequal) continue;
        if (state.has_null_singleton && state.null_record == r) {
          state.has_null_singleton = false;
        }
      } else if (auto it = state.singleton_of.find(code);
                 it != state.singleton_of.end() && it->second == r) {
        state.singleton_of.erase(it);
      }
    }

    pli.RemoveRows(removals, dead.size(), &demoted, &emptied);

    // Demoted survivors become implicit singletons: restamp their cell and
    // migrate the value index from the cluster map to the singleton map.
    for (const auto& [slot, survivor] : demoted) {
      data_.records.SetCluster(survivor, c, kUniqueCluster);
      const uint32_t code = codes[survivor];
      if (code == kNullCode) {
        state.has_null_cluster = false;
        state.has_null_singleton = true;
        state.null_record = survivor;
      } else {
        state.cluster_of.erase(code);
        state.singleton_of.emplace(code, survivor);
      }
    }
    // Slots whose members all died: the value itself is gone from the
    // relation; unmap it (the slot index may be recycled by compaction).
    for (uint32_t slot : emptied) {
      uint32_t code = 0;
      bool found = false;
      for (const auto& [s, r] : removals) {
        if (s == slot) {
          code = codes[r];
          found = true;
          break;
        }
      }
      HYFD_CHECK(found, "IncrementalHyFd: emptied slot without a removal");
      if (code == kNullCode) {
        state.has_null_cluster = false;
      } else {
        state.cluster_of.erase(code);
      }
    }

    // Compact when the empty-slot fraction crosses the threshold: drop the
    // empties, renumber surviving slots, restamp moved members' cells, and
    // renumber the value index.
    if (pli.num_empty_slots() > 0 &&
        static_cast<double>(pli.num_empty_slots()) >
            config_.pli_compact_threshold *
                static_cast<double>(pli.clusters().size())) {
      pli.CompactSlots(&remap);
      const auto& clusters = pli.clusters();
      for (size_t old_slot = 0; old_slot < remap.size(); ++old_slot) {
        const int32_t new_slot = remap[old_slot];
        if (new_slot < 0 || static_cast<size_t>(new_slot) == old_slot) {
          continue;
        }
        for (RecordId member : clusters[static_cast<size_t>(new_slot)]) {
          data_.records.SetCluster(member, c, new_slot);
        }
      }
      for (auto& [code, ci] : state.cluster_of) {
        HYFD_CHECK(remap[ci] >= 0,
                   "IncrementalHyFd: value index points at a dropped slot");
        ci = static_cast<uint32_t>(remap[ci]);
      }
      if (state.has_null_cluster) {
        HYFD_CHECK(remap[state.null_cluster] >= 0,
                   "IncrementalHyFd: NULL index points at a dropped slot");
        state.null_cluster = static_cast<uint32_t>(remap[state.null_cluster]);
      }
    }
  }
  // Wipe the dead rows' cells last: the per-column classification above
  // reads them.
  data_.records.RemoveRows(dead);
  HYFD_AUDIT_ONLY({
    for (const Pli& pli : data_.plis) pli.CheckInvariants();
    data_.records.CheckInvariants(data_.plis);
  });
}

void IncrementalHyFd::RepairCoverAfterDeletes() {
  // Drop every agree set whose witnessing pair lost a row: the set may have
  // no other live witness, and a stale entry would wrongly pin all FDs it
  // once refuted (unsound); dropping a still-true set merely costs the
  // Validator one full re-check (the sound direction).
  for (auto it = negative_cover_.begin(); it != negative_cover_.end();) {
    const auto& [a, b] = it->second;
    if (live_[a] == 0 || live_[b] == 0) {
      it = negative_cover_.erase(it);
    } else {
      ++it;
    }
  }

  // Rebuild the candidate tree as the minimal cover of the surviving
  // constraints. This must happen on *every* delete batch — violations the
  // Validator refuted without a recorded pair are not in the cover, so "no
  // witness died" proves nothing. Subset probing of the old LHSs would be
  // incomplete: a new minimal FD after a delete need not have its LHS below
  // any old one.
  FDTree old_tree = std::move(tree_);
  tree_ = FDTree(data_.num_attributes);
  inductor_ = std::make_unique<Inductor>(&tree_, &metrics_);
  std::vector<AttributeSet> kept;
  kept.reserve(negative_cover_.size());
  for (const auto& [agree, witness] : negative_cover_) kept.push_back(agree);
  // Canonical order (as Sampler::Run emits) so the rebuilt tree never
  // depends on hash-map iteration order.
  std::sort(kept.begin(), kept.end(), CanonicalAgreeSetOrder);
  inductor_->Update(std::move(kept));

  // Transfer proofs: an FD with a confirmed generalization in the old tree
  // is still valid (deletes only remove violating pairs; insert-induced
  // violations are caught by the restricted re-check over touched
  // clusters). The unconfirmed remainder are the downward candidates the
  // Validator must settle from scratch.
  tree_.ConfirmFrom(old_tree);
  stats_.generalization_candidates =
      tree_.CountFds() - tree_.CountConfirmedFds();
  HYFD_AUDIT_ONLY(tree_.CheckInvariants());
}

const FDSet& IncrementalHyFd::ApplyBatchStrings(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::vector<std::optional<std::string>>> converted;
  converted.reserve(rows.size());
  for (const auto& row : rows) {
    converted.emplace_back(row.begin(), row.end());
  }
  return ApplyBatch(converted);
}

void IncrementalHyFd::FillReport(double total_seconds,
                                 const PliCacheDelta& cache_delta) {
  stats_.num_fds = fds_.size();
  report_ = RunReport{};
  report_.algorithm = "hyfd_incremental";
  report_.rows = data_.num_records;
  report_.columns = data_.num_attributes;
  report_.result_kind = "fds";
  report_.result_count = fds_.size();
  report_.total_seconds = total_seconds;
  report_.AddPhase("append", stats_.append_seconds);
  report_.AddPhase("sampling", stats_.sampling_seconds);
  report_.AddPhase("validation", stats_.validation_seconds);
  // No guardian and no result pruning in a session: the answer is complete
  // by construction (the equivalence guarantee depends on it).
  const PliCache::Counters cache_used = cache_delta.Record(&report_);
  if (cache_ != nullptr) {
    report_.SetCounter("incremental.cache_stale_drops", cache_used.stale_drops);
  }
  report_.MergeMetrics(metrics_);
  report_.SetCounter("incremental.batches",
                     static_cast<uint64_t>(num_batches_));
  report_.SetCounter("incremental.batch_rows", stats_.batch_rows);
  report_.SetCounter("incremental.deleted_rows", stats_.deleted_rows);
  report_.SetCounter("incremental.live_rows",
                     static_cast<uint64_t>(num_live_rows_));
  report_.SetCounter("incremental.touched_clusters", stats_.touched_clusters);
  report_.SetCounter("incremental.fds_invalidated", stats_.fds_invalidated);
  report_.SetCounter("incremental.fds_revalidated", stats_.fds_revalidated);
  report_.SetCounter("incremental.generalization_candidates",
                     stats_.generalization_candidates);
  report_.SetCounter("incremental.fds_generalized", stats_.fds_generalized);
  report_.SetCounter("incremental.validations", stats_.validations);
  report_.SetCounter("incremental.comparisons", stats_.comparisons);
  report_.SetCounter("incremental.phase_switches",
                     static_cast<uint64_t>(stats_.phase_switches));
  PublishRunReport(&report_, config_.run_report);
}

}  // namespace hyfd
