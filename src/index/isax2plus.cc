#include "index/isax2plus.h"

#include <cmath>

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

// The per-query view of the tree for the core tree search driver: the
// query's PAA, the covering-leaf descent, and the iSAX MINDIST bound.
struct Isax2Plus::Search {
  using Node = IsaxTree::Node;

  Search(const Isax2Plus& index, core::SeriesView query)
      : index(index),
        order(core::ScratchQueryOrder(query)),
        paa(transform::Paa(query, index.options_.segments)),
        pps(query.size() / index.options_.segments) {
    HYDRA_CHECK(index.tree_ != nullptr);
  }

  // The query's covering leaf (Definition 7's one path); nullptr on an
  // empty tree.
  const Node* Home(core::SearchStats* stats) const {
    std::vector<uint8_t> q_word(paa.size());
    for (size_t s = 0; s < paa.size(); ++s) {
      q_word[s] = transform::SaxSymbol(paa[s], transform::kMaxSaxBits);
    }
    return index.tree_->ApproximateLeaf(q_word, paa, pps, stats);
  }
  const Node* NgLeaf(core::SearchStats* stats) const { return Home(stats); }
  static bool IsLeaf(const Node& node) { return node.is_leaf; }
  int64_t leaf_count() const { return index.leaf_count_; }

  double LowerBound(const Node& node) const {
    return transform::IsaxMinDistSq(paa, node.word, pps);
  }
  template <typename Emit>
  void ForEachTop(Emit&& emit) const {
    index.tree_->ForEachFirstLevel(
        [&](const Node* node) { emit(node, LowerBound(*node)); });
  }
  template <typename Emit>
  void ForEachChild(const Node& node, Emit&& emit) const {
    for (const Node* child : {node.child0.get(), node.child1.get()}) {
      emit(child, LowerBound(*child));
    }
  }
  template <typename Sink>
  void VisitLeaf(const Node& leaf, Sink* sink, core::SearchStats* stats,
                 const core::KnnPlan& plan) const {
    io::VerifyLeaf(index.data_, index.extent_.get(), leaf, order, sink,
                   stats, plan.max_raw);
  }

  const Isax2Plus& index;
  const core::QueryOrder& order;
  const std::vector<double> paa;
  const size_t pps;
};

core::QueryResult Isax2Plus::DoSearchKnn(core::SeriesView query,
                                         const core::KnnPlan& plan) {
  return core::TreeSearchKnn<Search>(*this, query, plan);
}

core::QueryResult Isax2Plus::DoSearchRange(core::SeriesView query,
                                           const core::RangePlan& plan) {
  return core::TreeSearchRange<Search>(*this, query, plan);
}

core::QueryResult Isax2Plus::DoSearchKnnNg(core::SeriesView query, size_t k) {
  return core::TreeSearchNg<Search>(*this, query, k);
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
