#include "index/sfatrie.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>

#include "core/distance.h"
#include "core/simd/kernels.h"
#include "core/traversal.h"
#include "io/index_codec.h"
#include "transform/dft.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {

struct SfaTrie::Node {
  // The word prefix this node covers has length `depth`; children are keyed
  // by the symbol at position `depth`.
  int depth = 0;
  bool is_leaf = true;
  std::vector<std::unique_ptr<Node>> children;  // alphabet slots (internal)
  std::vector<core::SeriesId> ids;              // leaf only
  // MBR of member DFT vectors (tight lower bound, "DFT MBRs").
  std::vector<double> mbr_min;
  std::vector<double> mbr_max;
  size_t count = 0;
};

SfaTrie::SfaTrie(SfaTrieOptions options) : options_(options) {}
SfaTrie::~SfaTrie() = default;

core::BuildStats SfaTrie::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  const size_t dims =
      std::min(options_.word_length,
               transform::MaxPackedCoeffs(data.length(), /*skip_dc=*/true));

  // DFT summaries for every series (one sequential pass), then MCB training
  // on a sample (the original uses sampling; at our scale "all" is cheap).
  dfts_.resize(data.size() * dims);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto dft = transform::PackedRealDft(data[i], dims, /*skip_dc=*/true);
    std::copy(dft.begin(), dft.end(), dfts_.begin() + i * dims);
  }
  const size_t sample =
      options_.sample_size == 0
          ? data.size()
          : std::min(options_.sample_size, data.size());
  std::vector<std::vector<double>> sample_dfts(sample);
  for (size_t i = 0; i < sample; ++i) {
    // Strided sampling covers the whole collection.
    const size_t idx = i * data.size() / sample;
    sample_dfts[i].assign(dfts_.begin() + idx * dims,
                          dfts_.begin() + (idx + 1) * dims);
  }
  quantizer_ =
      transform::SfaQuantizer::Train(sample_dfts, options_.alphabet,
                                     options_.binning);

  words_.resize(data.size() * dims);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto word = quantizer_.Quantize(
        std::span<const double>(dfts_.data() + i * dims, dims));
    std::copy(word.begin(), word.end(), words_.begin() + i * dims);
  }

  root_ = std::make_unique<Node>();
  root_->mbr_min.assign(dims, std::numeric_limits<double>::infinity());
  root_->mbr_max.assign(dims, -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < data.size(); ++i) {
    Insert(static_cast<core::SeriesId>(i), root_.get());
  }

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  stats.bytes_written = static_cast<int64_t>(data.bytes());
  stats.random_writes = footprint().leaf_nodes;
  leaf_count_ = stats.random_writes;
  return stats;
}

void SfaTrie::SaveNode(const Node& node, io::IndexWriter* w) {
  w->WriteI32(node.depth);
  w->WriteBool(node.is_leaf);
  w->WriteU64(node.count);
  w->WritePodVector(node.mbr_min);
  w->WritePodVector(node.mbr_max);
  if (node.is_leaf) {
    w->WritePodVector(node.ids);
    return;
  }
  w->WriteU64(node.children.size());
  for (const auto& slot : node.children) {
    w->WriteBool(slot != nullptr);
    if (slot != nullptr) SaveNode(*slot, w);
  }
}

std::unique_ptr<SfaTrie::Node> SfaTrie::LoadNode(io::IndexReader* r,
                                                 size_t series_count) const {
  const io::IndexReader::NodeGuard guard(r);
  const size_t dims = quantizer_.dims();
  auto node = std::make_unique<Node>();
  node->depth = r->ReadI32();
  node->is_leaf = r->ReadBool();
  node->count = r->ReadU64();
  node->mbr_min = r->ReadPodVector<double>();
  node->mbr_max = r->ReadPodVector<double>();
  if (!r->ok()) return node;
  if (node->mbr_min.size() != dims || node->mbr_max.size() != dims) {
    r->Fail("SFA node MBR does not match the word length");
    return node;
  }
  // The descent indexes the query word by `depth`, so an internal node's
  // depth must address a word position (a leaf may sit at depth == dims:
  // the full word is exhausted).
  if (node->depth < 0 || static_cast<size_t>(node->depth) > dims ||
      (!node->is_leaf && static_cast<size_t>(node->depth) == dims)) {
    r->Fail("SFA node depth is out of the word's range");
    return node;
  }
  if (node->is_leaf) {
    node->ids = r->ReadPodVector<core::SeriesId>();
    for (const core::SeriesId id : node->ids) {
      if (id >= series_count) {
        r->Fail("SFA leaf entry is out of the dataset's range");
        return node;
      }
    }
    return node;
  }
  const uint64_t slots = r->ReadU64();
  if (!r->ok()) return node;
  if (slots != static_cast<uint64_t>(options_.alphabet)) {
    r->Fail("SFA internal node fanout does not match the alphabet");
    return node;
  }
  node->children.resize(slots);
  for (uint64_t s = 0; s < slots && r->ok(); ++s) {
    if (r->ReadBool()) node->children[s] = LoadNode(r, series_count);
  }
  return node;
}

void SfaTrie::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.word_length);
  writer->WriteI32(options_.alphabet);
  writer->WriteU8(static_cast<uint8_t>(options_.binning));
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteU64(options_.sample_size);
  writer->WriteI64(leaf_count_);
  writer->EndSection();
  writer->BeginSection("quantizer");
  writer->WriteU64(quantizer_.dims());
  for (size_t d = 0; d < quantizer_.dims(); ++d) {
    const auto bins = quantizer_.BreakpointsFor(d);
    writer->WritePodVector(
        std::vector<double>(bins.begin(), bins.end()));
  }
  writer->EndSection();
  writer->BeginSection("summaries");
  writer->WritePodVector(dfts_);
  writer->WritePodVector(words_);
  writer->EndSection();
  writer->BeginSection("tree");
  SaveNode(*root_, writer);
  writer->EndSection();
}

util::Status SfaTrie::DoOpen(io::IndexReader* reader,
                             const core::Dataset& data) {
  reader->EnterSection("options");
  options_.word_length = reader->ReadU64();
  options_.alphabet = reader->ReadI32();
  options_.binning =
      static_cast<transform::SfaQuantizer::Binning>(reader->ReadU8());
  options_.leaf_capacity = reader->ReadU64();
  options_.sample_size = reader->ReadU64();
  leaf_count_ = reader->ReadI64();
  if (reader->ok() && (options_.alphabet < 2 || options_.alphabet > 256 ||
                       options_.leaf_capacity == 0)) {
    reader->Fail("SFA options are out of range");
  }
  reader->EnterSection("quantizer");
  const uint64_t dims = reader->ReadU64();
  std::vector<std::vector<double>> bins;
  for (uint64_t d = 0; d < dims && reader->ok(); ++d) {
    bins.push_back(reader->ReadPodVector<double>());
    if (reader->ok() &&
        bins.back().size() != static_cast<size_t>(options_.alphabet) - 1) {
      reader->Fail("SFA breakpoint table does not match the alphabet");
    }
  }
  if (!reader->ok()) return reader->status();
  quantizer_ =
      transform::SfaQuantizer::FromBreakpoints(std::move(bins),
                                               options_.alphabet);
  reader->EnterSection("summaries");
  dfts_ = reader->ReadPodVector<double>();
  words_ = reader->ReadPodVector<uint8_t>();
  if (reader->ok() && (dfts_.size() != data.size() * quantizer_.dims() ||
                       words_.size() != data.size() * quantizer_.dims())) {
    reader->Fail("SFA summary file does not cover the dataset");
  }
  reader->EnterSection("tree");
  if (!reader->ok()) return reader->status();
  data_ = &data;
  root_ = LoadNode(reader, data.size());
  return reader->status();
}

void SfaTrie::Insert(core::SeriesId id, Node* node) {
  const size_t dims = quantizer_.dims();
  const double* dft = dfts_.data() + static_cast<size_t>(id) * dims;
  const uint8_t* word = words_.data() + static_cast<size_t>(id) * dims;
  while (true) {
    for (size_t d = 0; d < dims; ++d) {
      node->mbr_min[d] = std::min(node->mbr_min[d], dft[d]);
      node->mbr_max[d] = std::max(node->mbr_max[d], dft[d]);
    }
    ++node->count;
    if (node->is_leaf) break;
    std::unique_ptr<Node>& slot = node->children[word[node->depth]];
    if (slot == nullptr) {
      slot = std::make_unique<Node>();
      slot->depth = node->depth + 1;
      slot->mbr_min.assign(dims, std::numeric_limits<double>::infinity());
      slot->mbr_max.assign(dims, -std::numeric_limits<double>::infinity());
    }
    node = slot.get();
  }
  node->ids.push_back(id);
  if (node->ids.size() > options_.leaf_capacity &&
      static_cast<size_t>(node->depth) < dims) {
    SplitLeaf(node);
  }
}

void SfaTrie::SplitLeaf(Node* leaf) {
  const size_t dims = quantizer_.dims();
  leaf->is_leaf = false;
  leaf->children.resize(static_cast<size_t>(options_.alphabet));
  std::vector<core::SeriesId> ids = std::move(leaf->ids);
  leaf->ids.clear();
  for (const core::SeriesId id : ids) {
    const uint8_t sym =
        words_[static_cast<size_t>(id) * dims + leaf->depth];
    std::unique_ptr<Node>& slot = leaf->children[sym];
    if (slot == nullptr) {
      slot = std::make_unique<Node>();
      slot->depth = leaf->depth + 1;
      slot->mbr_min.assign(dims, std::numeric_limits<double>::infinity());
      slot->mbr_max.assign(dims, -std::numeric_limits<double>::infinity());
    }
    Node* child = slot.get();
    const double* dft = dfts_.data() + static_cast<size_t>(id) * dims;
    for (size_t d = 0; d < dims; ++d) {
      child->mbr_min[d] = std::min(child->mbr_min[d], dft[d]);
      child->mbr_max[d] = std::max(child->mbr_max[d], dft[d]);
    }
    ++child->count;
    child->ids.push_back(id);
  }
  for (auto& slot : leaf->children) {
    if (slot != nullptr && slot->ids.size() > options_.leaf_capacity &&
        static_cast<size_t>(slot->depth) < dims) {
      SplitLeaf(slot.get());
    }
  }
}

double SfaTrie::NodeLowerBound(std::span<const double> q_dft,
                               const Node& node) const {
  // Distance from the query's DFT vector to the node MBR: valid because the
  // packed DFT is orthonormal and truncated.
  return core::simd::ActiveKernels().box_dist_sq(
      q_dft.data(), node.mbr_min.data(), node.mbr_max.data(), q_dft.size());
}

void SfaTrie::VisitLeaf(const Node& leaf, const core::QueryOrder& order,
                        const core::KnnPlan& plan, core::KnnHeap* heap,
                        core::SearchStats* stats) const {
  if (leaf.ids.empty()) return;
  HYDRA_OBS_SPAN_ARG("leaf_verify", "series", leaf.ids.size());
  io::ChargeLeafRead(leaf.ids.size(), data_->length() * sizeof(core::Value),
                     stats);
  io::CountedStorage raw(data_);
  for (const core::SeriesId id : leaf.ids) {
    if (plan.RawCapReached(stats)) return;
    const double d = order.Distance(raw.ReadPrecharged(id, stats),
                                    heap->Bound());
    ++stats->distance_computations;
    ++stats->raw_series_examined;
    heap->Offer(id, d);
  }
}

core::QueryResult SfaTrie::DoSearchKnn(core::SeriesView query,
                                       const core::KnnPlan& plan) {
  HYDRA_CHECK(root_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(plan.k);
  core::KnnWorkers workers(&heap, &result.stats, plan);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const size_t dims = quantizer_.dims();
  const auto q_dft = transform::PackedRealDft(query, dims, /*skip_dc=*/true);
  const auto q_word = quantizer_.Quantize(q_dft);

  // ng-approximate descent along the query's word, always on the calling
  // thread (worker 0) into the primary heap, so every worker starts from
  // the descent's published bound.
  Node* node = root_.get();
  while (!node->is_leaf) {
    Node* next = node->children[q_word[node->depth]].get();
    if (next == nullptr) break;  // empty slot: stop early
    node = next;
  }
  const Node* home = node->is_leaf ? node : nullptr;
  std::vector<int64_t> leaves(workers.workers(), 0);
  std::vector<uint8_t> stop(workers.workers(), 0);
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    VisitLeaf(*home, order, plan, &heap, &result.stats);
    leaves[0] = 1;
  }

  // Best-first traversal with the MBR lower bound; pruning against
  // bsf/(1+epsilon)^2 (plan.bound_scale) keeps every reported distance
  // within (1+epsilon) of the truth (exact with the default plan). Caps
  // and budgets only ever bind at width 1 (Execute's pure-exact gate).
  struct Item {
    double lb;
    const Node* node;
    bool operator<(const Item& other) const {
      return lb > other.lb;
    }
  };
  core::BestFirstTraverse<Item>(
      workers.workers(), {Item{0.0, root_.get()}},
      [&](const Item& item, size_t w) {
        return stop[w] != 0 || workers.stats(w).budget_exhausted ||
               item.lb >= workers.heap(w).Bound() * plan.bound_scale;
      },
      [&](const Item& item, size_t w,
          const std::function<void(Item)>& push) {
        core::SearchStats& stats = workers.stats(w);
        ++stats.nodes_visited;
        if (item.node->is_leaf) {
          if (item.node != home) {
            if (plan.LeafCapReached(leaves[w], leaf_count_, &stats)) {
              stop[w] = 1;
              return;
            }
            VisitLeaf(*item.node, order, plan, &workers.heap(w), &stats);
            ++leaves[w];
          }
          return;
        }
        for (const auto& slot : item.node->children) {
          if (slot == nullptr || slot->count == 0) continue;
          const double lb = NodeLowerBound(q_dft, *slot);
          ++stats.lower_bound_computations;
          if (lb < workers.heap(w).Bound() * plan.bound_scale) {
            push({lb, slot.get()});
          }
        }
      });

  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult SfaTrie::DoSearchRange(core::SeriesView query,
                                         const core::RangePlan& plan) {
  HYDRA_CHECK(root_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  const double radius_sq = plan.radius * plan.radius;
  core::RangeWorkers workers(radius_sq, &result.stats, plan.query_threads);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const size_t dims = quantizer_.dims();
  const auto q_dft = transform::PackedRealDft(query, dims, /*skip_dc=*/true);

  // Engine traversal with the fixed r^2 bound: nodes are bounded before
  // they enter the frontier, so every counter is traversal-order
  // independent and the parallel sweep charges exactly the serial totals.
  struct Item {
    double lb;
    const Node* node;
    bool operator<(const Item& other) const { return lb > other.lb; }
  };
  auto bounded = [&](const Node* node, core::SearchStats* stats)
      -> std::optional<Item> {
    if (node->count == 0) return std::nullopt;
    ++stats->lower_bound_computations;
    const double lb = NodeLowerBound(q_dft, *node);
    if (lb > radius_sq) return std::nullopt;
    return Item{lb, node};
  };
  std::vector<Item> seeds;
  if (const auto root = bounded(root_.get(), &result.stats)) {
    seeds.push_back(*root);
  }
  core::BestFirstTraverse<Item>(
      workers.workers(), seeds,
      [](const Item&, size_t) { return false; },
      [&](const Item& item, size_t w,
          const std::function<void(Item)>& push) {
        core::RangeCollector& collector = workers.collector(w);
        core::SearchStats& stats = workers.stats(w);
        ++stats.nodes_visited;
        if (item.node->is_leaf) {
          HYDRA_OBS_SPAN_ARG("leaf_verify", "series", item.node->ids.size());
          io::ChargeLeafRead(item.node->ids.size(),
                             data_->length() * sizeof(core::Value), &stats);
          io::CountedStorage raw(data_);
          for (const core::SeriesId id : item.node->ids) {
            const double d = order.Distance(
                raw.ReadPrecharged(id, &stats), collector.Bound());
            ++stats.distance_computations;
            ++stats.raw_series_examined;
            collector.Offer(id, d);
          }
          return;
        }
        for (const auto& slot : item.node->children) {
          if (slot == nullptr) continue;
          if (const auto entry = bounded(slot.get(), &stats)) push(*entry);
        }
      });

  workers.Finish(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult SfaTrie::DoSearchKnnNg(core::SeriesView query, size_t k) {
  HYDRA_CHECK(root_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(k);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const size_t dims = quantizer_.dims();
  const auto q_dft = transform::PackedRealDft(query, dims, /*skip_dc=*/true);
  const auto q_word = quantizer_.Quantize(q_dft);

  // One path along the query's word; if the path dead-ends before a leaf,
  // take the child with the smallest MBR lower bound.
  Node* node = root_.get();
  while (!node->is_leaf) {
    Node* next = node->children[q_word[node->depth]].get();
    if (next == nullptr) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& slot : node->children) {
        if (slot == nullptr || slot->count == 0) continue;
        const double lb = NodeLowerBound(q_dft, *slot);
        if (lb < best) {
          best = lb;
          next = slot.get();
        }
      }
      if (next == nullptr) break;
    }
    node = next;
  }
  if (node->is_leaf) {
    ++result.stats.nodes_visited;
    VisitLeaf(*node, order, core::KnnPlan{.k = k}, &heap, &result.stats);
  }
  heap.ExtractSortedTo(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::Footprint SfaTrie::footprint() const {
  HYDRA_CHECK(root_ != nullptr);
  core::Footprint fp;
  const size_t dims = quantizer_.dims();
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ++fp.total_nodes;
    fp.memory_bytes +=
        static_cast<int64_t>(sizeof(Node) + 2 * dims * sizeof(double));
    if (n->is_leaf) {
      ++fp.leaf_nodes;
      fp.memory_bytes +=
          static_cast<int64_t>(n->ids.size() * sizeof(core::SeriesId));
      fp.leaf_fill_fractions.push_back(
          static_cast<double>(n->ids.size()) /
          static_cast<double>(options_.leaf_capacity));
      fp.leaf_depths.push_back(n->depth);
    } else {
      for (const auto& slot : n->children) {
        if (slot != nullptr) stack.push_back(slot.get());
      }
    }
  }
  fp.memory_bytes += static_cast<int64_t>(quantizer_.MemoryBytes() +
                                          words_.size() * sizeof(uint8_t));
  fp.disk_bytes = static_cast<int64_t>(data_->bytes());  // leaf files
  return fp;
}

double SfaTrie::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(root_ != nullptr);
  const size_t dims = quantizer_.dims();
  const auto q_dft = transform::PackedRealDft(query, dims, /*skip_dc=*/true);
  double sum = 0.0;
  int64_t leaves = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (!n->is_leaf) {
      for (const auto& slot : n->children) {
        if (slot != nullptr) stack.push_back(slot.get());
      }
      continue;
    }
    if (n->ids.empty()) continue;
    // The tight SFA bound (DFT MBRs), the variant the paper evaluates.
    const double lb_sq = NodeLowerBound(q_dft, *n);
    double true_sum = 0.0;
    for (const core::SeriesId id : n->ids) {
      true_sum += std::sqrt(core::SquaredEuclidean(query, (*data_)[id]));
    }
    const double mean_true = true_sum / static_cast<double>(n->ids.size());
    if (mean_true > 0.0) {
      sum += std::sqrt(lb_sq) / mean_true;
      ++leaves;
    }
  }
  return leaves == 0 ? 0.0 : sum / static_cast<double>(leaves);
}

}  // namespace hydra::index
