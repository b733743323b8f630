#include "index/ads.h"

#include <cmath>
#include <memory>

#include "core/distance.h"
#include "core/traversal.h"
#include "io/index_codec.h"
#include "transform/paa.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {

core::BuildStats AdsPlus::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK_MSG(data.length() % options_.segments == 0,
                  "ADS+ requires length divisible by segment count");

  full_words_.resize(data.size() * options_.segments);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto paa = transform::Paa(data[i], options_.segments);
    for (size_t s = 0; s < options_.segments; ++s) {
      full_words_[i * options_.segments + s] =
          transform::SaxSymbol(paa[s], transform::kMaxSaxBits);
    }
  }
  tree_ = std::make_unique<IsaxTree>(
      IsaxTreeOptions{options_.segments, options_.leaf_capacity},
      full_words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree_->Insert(static_cast<core::SeriesId>(i));
  }
  raw_ = std::make_unique<io::CountedStorage>(data_);

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  // One sequential read of the raw file; only the (small) summary file is
  // written — ADS+ never moves raw series at build time.
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  stats.bytes_written = static_cast<int64_t>(full_words_.size());
  stats.random_writes = 1;
  return stats;
}

void AdsPlus::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.segments);
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteU64(options_.adaptive_leaf_capacity);
  writer->EndSection();
  writer->BeginSection("summaries");
  writer->WritePodVector(full_words_);
  writer->EndSection();
  writer->BeginSection("tree");
  tree_->SaveTo(writer);
  writer->EndSection();
}

util::Status AdsPlus::DoOpen(io::IndexReader* reader,
                             const core::Dataset& data) {
  reader->EnterSection("options");
  options_.segments = reader->ReadU64();
  options_.leaf_capacity = reader->ReadU64();
  options_.adaptive_leaf_capacity = reader->ReadU64();
  tree_ = IsaxTree::OpenShared(
      reader, IsaxTreeOptions{options_.segments, options_.leaf_capacity},
      data, &full_words_);
  if (!reader->ok()) return reader->status();
  data_ = &data;
  raw_ = std::make_unique<io::CountedStorage>(data_);
  return reader->status();
}

core::QueryResult AdsPlus::DoSearchKnn(core::SeriesView query,
                                       const core::KnnPlan& plan) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap heap(plan.k);
  core::KnnWorkers workers(&heap, &result.stats, plan);
  const core::QueryOrder order(query);
  const size_t segments = options_.segments;
  const auto paa = transform::Paa(query, segments);
  const size_t pps = query.size() / segments;

  // Phase 1 (ng-approximate): adaptively refine the query path down to the
  // minimal leaf size, then fetch that leaf's series from the raw file.
  // SIMS visits exactly this one leaf, so max_visited_leaves (>= 1 by
  // construction) never fires; the raw budget applies from the start.
  std::vector<uint8_t> q_word(segments);
  for (size_t s = 0; s < segments; ++s) {
    q_word[s] = transform::SaxSymbol(paa[s], transform::kMaxSaxBits);
  }
  IsaxTree::Node* home = tree_->ApproximateLeaf(q_word, paa, pps);
  while (home != nullptr && home->size() > options_.adaptive_leaf_capacity) {
    const size_t before = home->size();
    tree_->SplitLeaf(home);
    if (home->is_leaf) break;  // could not split (max resolution)
    home = tree_->ApproximateLeaf(q_word, paa, pps);
    if (home == nullptr || home->size() >= before) break;
  }
  std::vector<bool> evaluated(data_->size(), false);
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    for (const core::SeriesId id : home->ids) {
      if (plan.RawCapReached(&result.stats)) break;
      const core::SeriesView s = raw_->Read(id, &result.stats);
      const double d = order.Distance(s, heap.Bound());
      ++result.stats.distance_computations;
      ++result.stats.raw_series_examined;
      evaluated[id] = true;
      heap.Offer(id, d);
    }
  }

  // A budget exhausted already in phase 1 makes the answer final: skip the
  // O(N) summary pass and the refinement scan outright — the whole point
  // of a budget is to keep truncated queries cheap.
  if (result.stats.budget_exhausted) {
    workers.Finish(plan.k, &result.neighbors);
    result.stats.cpu_seconds = timer.Seconds();
    return result;
  }

  // Phase 2: lower bounds against every full-resolution summary (the
  // summary array is memory-resident). Disjoint blocks write disjoint
  // lb[] slots, so the parallel sweep computes exactly the serial values.
  const size_t count = data_->size();
  std::vector<double> lb(count);
  core::ParallelScan(
      workers.workers(), count, /*block=*/4096,
      [&](size_t /*w*/, size_t begin, size_t end) {
        transform::IsaxWord w;
        w.bits.assign(segments, static_cast<uint8_t>(transform::kMaxSaxBits));
        w.symbols.resize(segments);
        for (size_t i = begin; i < end; ++i) {
          for (size_t s = 0; s < segments; ++s) {
            w.symbols[s] = full_words_[i * segments + s];
          }
          lb[i] = transform::IsaxMinDistSq(paa, w, pps);
        }
      });
  result.stats.lower_bound_computations += static_cast<int64_t>(count);

  // The delta stopping rule, over ADS+'s unit of random access: cap the
  // refinement pass at ceil(delta * candidates-at-start) reads.
  int64_t delta_cap = core::KnnPlan::kUnlimited;
  if (plan.delta < 1.0) {
    int64_t candidates = 0;
    for (size_t i = 0; i < count; ++i) {
      if (!evaluated[i] && lb[i] < heap.Bound() * plan.bound_scale) {
        ++candidates;
      }
    }
    delta_cap = plan.DeltaCap(candidates);
  }

  // Phase 3: skip-sequential scan of the raw file over non-pruned series
  // (series already refined in phase 1 are not re-read). Pruning against
  // bsf/(1+epsilon)^2 (plan.bound_scale) keeps every reported distance
  // within (1+epsilon) of the truth (exact with the default plan). Extra
  // workers read through their own storage cursors; budgets and the delta
  // rule only ever bind at width 1 (Execute's pure-exact gate), where the
  // single block replays the serial scan exactly.
  raw_->ResetCursor();
  std::vector<std::unique_ptr<io::CountedStorage>> extra_storage;
  for (size_t w = 1; w < workers.workers(); ++w) {
    extra_storage.push_back(std::make_unique<io::CountedStorage>(data_));
  }
  std::vector<int64_t> refined(workers.workers(), 0);
  core::ParallelScan(
      workers.workers(), count, /*block=*/1024,
      [&](size_t w, size_t begin, size_t end) {
        core::KnnHeap& local = workers.heap(w);
        core::SearchStats& stats = workers.stats(w);
        io::CountedStorage& storage = w == 0 ? *raw_ : *extra_storage[w - 1];
        for (size_t i = begin; i < end && !stats.budget_exhausted; ++i) {
          if (evaluated[i] || lb[i] >= local.Bound() * plan.bound_scale) {
            continue;  // skip
          }
          if (plan.RawCapReached(&stats)) break;
          if (refined[w] >= delta_cap) break;  // delta rule: no budget flag
          const core::SeriesView s =
              storage.Read(static_cast<core::SeriesId>(i), &stats);
          const double d = order.Distance(s, local.Bound());
          ++stats.distance_computations;
          ++stats.raw_series_examined;
          ++refined[w];
          local.Offer(static_cast<core::SeriesId>(i), d);
        }
      });
  raw_->ReleasePin();  // raw_ outlives the query; never idle on a frame

  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult AdsPlus::DoSearchRange(core::SeriesView query,
                                         const core::RangePlan& plan) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  const double radius_sq = plan.radius * plan.radius;
  core::RangeWorkers workers(radius_sq, &result.stats, plan.query_threads);
  const core::QueryOrder order(query);
  const size_t segments = options_.segments;
  const auto paa = transform::Paa(query, segments);
  const size_t pps = query.size() / segments;

  // SIMS with a fixed bound: the approximate phase is unnecessary — prune
  // every summary against r^2, then skip-sequentially refine survivors.
  // Every test uses the fixed radius, so the parallel sweep charges exactly
  // the serial distance/lower-bound counters; extra workers read through
  // their own storage cursors.
  const size_t count = data_->size();
  raw_->ResetCursor();
  std::vector<std::unique_ptr<io::CountedStorage>> extra_storage;
  for (size_t w = 1; w < workers.workers(); ++w) {
    extra_storage.push_back(std::make_unique<io::CountedStorage>(data_));
  }
  core::ParallelScan(
      workers.workers(), count, /*block=*/1024,
      [&](size_t worker, size_t begin, size_t end) {
        core::RangeCollector& collector = workers.collector(worker);
        core::SearchStats& stats = workers.stats(worker);
        io::CountedStorage& storage =
            worker == 0 ? *raw_ : *extra_storage[worker - 1];
        transform::IsaxWord w;
        w.bits.assign(segments, static_cast<uint8_t>(transform::kMaxSaxBits));
        w.symbols.resize(segments);
        for (size_t i = begin; i < end; ++i) {
          for (size_t s = 0; s < segments; ++s) {
            w.symbols[s] = full_words_[i * segments + s];
          }
          ++stats.lower_bound_computations;
          if (transform::IsaxMinDistSq(paa, w, pps) > radius_sq) continue;
          const core::SeriesView s =
              storage.Read(static_cast<core::SeriesId>(i), &stats);
          const double d = order.Distance(s, collector.Bound());
          ++stats.distance_computations;
          ++stats.raw_series_examined;
          collector.Offer(static_cast<core::SeriesId>(i), d);
        }
      });
  raw_->ReleasePin();  // raw_ outlives the query; never idle on a frame

  workers.Finish(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult AdsPlus::DoSearchKnnNg(core::SeriesView query, size_t k) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap heap(k);
  const core::QueryOrder order(query);
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;

  std::vector<uint8_t> q_word(options_.segments);
  for (size_t s = 0; s < options_.segments; ++s) {
    q_word[s] = transform::SaxSymbol(paa[s], transform::kMaxSaxBits);
  }
  IsaxTree::Node* home = tree_->ApproximateLeaf(q_word, paa, pps);
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    for (const core::SeriesId id : home->ids) {
      const core::SeriesView s = raw_->Read(id, &result.stats);
      const double d = order.Distance(s, heap.Bound());
      ++result.stats.distance_computations;
      ++result.stats.raw_series_examined;
      heap.Offer(id, d);
    }
  }
  raw_->ReleasePin();  // raw_ outlives the query; never idle on a frame
  result.neighbors = heap.TakeSorted();
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::Footprint AdsPlus::footprint() const {
  HYDRA_CHECK(tree_ != nullptr);
  core::Footprint fp = tree_->StructureFootprint();
  fp.memory_bytes += static_cast<int64_t>(full_words_.size());
  // ADS+ stores only the summary file; raw data stays in the original file.
  fp.disk_bytes = static_cast<int64_t>(full_words_.size());
  return fp;
}

double AdsPlus::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(tree_ != nullptr);
  const size_t segments = options_.segments;
  const auto paa = transform::Paa(query, segments);
  const size_t pps = query.size() / segments;
  double sum = 0.0;
  int64_t leaves = 0;
  tree_->ForEachNode([&](const IsaxTree::Node& node) {
    if (!node.is_leaf || node.ids.empty()) return;
    const double lb =
        std::sqrt(transform::IsaxMinDistSq(paa, node.word, pps));
    double true_sum = 0.0;
    for (const core::SeriesId id : node.ids) {
      true_sum += std::sqrt(core::SquaredEuclidean(query, (*data_)[id]));
    }
    const double mean_true = true_sum / static_cast<double>(node.ids.size());
    if (mean_true > 0.0) {
      sum += lb / mean_true;
      ++leaves;
    }
  });
  return leaves == 0 ? 0.0 : sum / static_cast<double>(leaves);
}

}  // namespace hydra::index
