#include "index/isax2plus.h"

#include <cmath>
#include <limits>

#include "core/distance.h"
#include "core/traversal.h"
#include "io/index_codec.h"
#include "transform/paa.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {

core::BuildStats Isax2Plus::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK_MSG(data.length() % options_.segments == 0,
                  "iSAX2+ requires length divisible by segment count");

  // One sequential pass: PAA -> full-resolution words.
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
  extent_ = io::LayOutLeaves(data, [this] { return tree_->Leaves(); });

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  // Leaf materialization: the raw collection is clustered into leaf files.
  stats.bytes_written = static_cast<int64_t>(data.bytes());
  stats.random_writes = tree_->StructureFootprint().leaf_nodes;
  leaf_count_ = stats.random_writes;
  return stats;
}

void Isax2Plus::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.segments);
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteI64(leaf_count_);
  writer->EndSection();
  writer->BeginSection("summaries");
  writer->WritePodVector(full_words_);
  writer->EndSection();
  writer->BeginSection("tree");
  tree_->SaveTo(writer);
  writer->EndSection();
}

util::Status Isax2Plus::DoOpen(io::IndexReader* reader,
                               const core::Dataset& data) {
  reader->EnterSection("options");
  options_.segments = reader->ReadU64();
  options_.leaf_capacity = reader->ReadU64();
  leaf_count_ = reader->ReadI64();
  tree_ = IsaxTree::OpenShared(
      reader, IsaxTreeOptions{options_.segments, options_.leaf_capacity},
      data, &full_words_);
  if (!reader->ok()) return reader->status();
  data_ = &data;
  extent_ = io::LayOutLeaves(data, [this] { return tree_->Leaves(); });
  return reader->status();
}

core::QueryResult Isax2Plus::DoSearchKnn(core::SeriesView query,
                                         const core::KnnPlan& plan) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(plan.k);
  core::KnnWorkers workers(&heap, &result.stats, plan);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;

  // ng-approximate phase: descend to the query's covering leaf for a bsf.
  // Always on the calling thread (worker 0), into the primary heap, so
  // every worker starts from the descent's published bound.
  std::vector<uint8_t> q_word(options_.segments);
  for (size_t s = 0; s < options_.segments; ++s) {
    q_word[s] = transform::SaxSymbol(paa[s], transform::kMaxSaxBits);
  }
  IsaxTree::Node* home = tree_->ApproximateLeaf(q_word, paa, pps);
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    io::VerifyLeaf(data_, extent_.get(), *home, order, &heap, &result.stats,
                   plan.max_raw);
  }

  // A budget exhausted already in the home leaf makes the answer final:
  // skip the traversal outright rather than paying its first-level
  // MINDIST fan-out just to have the -inf bound prune everything.
  if (result.stats.budget_exhausted) {
    workers.Finish(plan.k, &result.neighbors);
    result.stats.cpu_seconds = timer.Seconds();
    return result;
  }

  // Best-first traversal pruned against bsf/(1+epsilon)^2
  // (plan.bound_scale; exact with the default plan). Once a cap fires the
  // bound closure collapses to -inf, which stops that worker's traversal
  // on its next pop. Caps and budgets only ever bind at width 1 (Execute's
  // pure-exact gate), so the per-worker stop flags never diverge.
  std::vector<int64_t> leaves(workers.workers(), 0);
  leaves[0] = home != nullptr ? 1 : 0;
  std::vector<uint8_t> stop(workers.workers(), 0);
  tree_->BestFirstSearch(
      paa, pps, workers.workers(),
      [&](size_t w) -> double {
        if (stop[w] != 0 || workers.stats(w).budget_exhausted) {
          return -std::numeric_limits<double>::infinity();
        }
        return workers.heap(w).Bound() * plan.bound_scale;
      },
      [&](IsaxTree::Node* leaf, size_t w) {
        if (stop[w] != 0 || workers.stats(w).budget_exhausted ||
            leaf == home) {
          return;
        }
        if (plan.LeafCapReached(leaves[w], leaf_count_,
                                &workers.stats(w))) {
          stop[w] = 1;
          return;
        }
        io::VerifyLeaf(data_, extent_.get(), *leaf, order, &workers.heap(w),
                       &workers.stats(w), plan.max_raw);
        ++leaves[w];
      },
      [&](size_t w) { return &workers.stats(w); });

  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult Isax2Plus::DoSearchRange(core::SeriesView query,
                                           const core::RangePlan& plan) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::RangeWorkers workers(plan.radius * plan.radius, &result.stats,
                             plan.query_threads);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;

  tree_->BestFirstSearch(
      paa, pps, workers.workers(),
      [&](size_t w) { return workers.collector(w).Bound(); },
      [&](IsaxTree::Node* leaf, size_t w) {
        io::VerifyLeaf(data_, extent_.get(), *leaf, order,
                       &workers.collector(w), &workers.stats(w));
      },
      [&](size_t w) { return &workers.stats(w); });

  workers.Finish(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult Isax2Plus::DoSearchKnnNg(core::SeriesView query, size_t k) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(k);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;

  // One-path traversal, at most one leaf (Definition 7).
  std::vector<uint8_t> q_word(options_.segments);
  for (size_t s = 0; s < options_.segments; ++s) {
    q_word[s] = transform::SaxSymbol(paa[s], transform::kMaxSaxBits);
  }
  IsaxTree::Node* home = tree_->ApproximateLeaf(q_word, paa, pps);
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    io::VerifyLeaf(data_, extent_.get(), *home, order, &heap, &result.stats);
  }
  heap.ExtractSortedTo(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::Footprint Isax2Plus::footprint() const {
  HYDRA_CHECK(tree_ != nullptr);
  core::Footprint fp = tree_->StructureFootprint();
  fp.memory_bytes += static_cast<int64_t>(full_words_.size());
  fp.disk_bytes = static_cast<int64_t>(data_->bytes());  // leaf files
  return fp;
}

double Isax2Plus::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(tree_ != nullptr);
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;
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
