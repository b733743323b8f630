#include "index/dstree.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "core/distance.h"
#include "core/traversal.h"
#include "io/index_codec.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {

using transform::SegmentRange;
using transform::Segmentation;
using transform::SegmentStats;

struct DsTree::Node {
  Segmentation seg;
  std::vector<SegmentRange> ranges;  // envelope of the subtree, over `seg`
  size_t count = 0;
  int depth = 0;
  bool is_leaf = true;
  // Split specification (internal nodes): children share `child_seg`; the
  // routing test compares a series' stat on `split_segment` to
  // `split_value`.
  Segmentation child_seg;
  int split_segment = -1;
  bool split_on_mean = true;
  double split_value = 0.0;
  std::unique_ptr<Node> left;   // stat <= split_value
  std::unique_ptr<Node> right;  // stat >  split_value
  std::vector<core::SeriesId> ids;  // leaf only
};

DsTree::DsTree(DsTreeOptions options) : options_(options) {}
DsTree::~DsTree() = default;

DsTree::Prefix DsTree::ComputePrefix(core::SeriesView x) {
  Prefix p;
  p.sum.resize(x.size() + 1, 0.0);
  p.sum_sq.resize(x.size() + 1, 0.0);
  for (size_t i = 0; i < x.size(); ++i) {
    p.sum[i + 1] = p.sum[i] + x[i];
    p.sum_sq[i + 1] = p.sum_sq[i] + static_cast<double>(x[i]) * x[i];
  }
  return p;
}

SegmentStats DsTree::StatOf(const Prefix& p, uint32_t begin, uint32_t end) {
  const double len = static_cast<double>(end - begin);
  const double mean = (p.sum[end] - p.sum[begin]) / len;
  const double var =
      std::max(0.0, (p.sum_sq[end] - p.sum_sq[begin]) / len - mean * mean);
  return {mean, std::sqrt(var)};
}

std::vector<SegmentStats> DsTree::StatsOn(const Prefix& p,
                                          const Segmentation& seg) {
  std::vector<SegmentStats> stats(seg.segments());
  for (size_t s = 0; s < seg.segments(); ++s) {
    stats[s] = StatOf(p, seg.begin_of(s), seg.ends[s]);
  }
  return stats;
}

namespace {

// "Size" of a node's envelope: how loose its lower bound can be. The QoS
// heuristic minimizes the count-weighted envelope size of the children.
double BoxSize(const std::vector<SegmentRange>& ranges,
               const Segmentation& seg) {
  double acc = 0.0;
  for (size_t s = 0; s < seg.segments(); ++s) {
    const double dm = ranges[s].max_mean - ranges[s].min_mean;
    const double ds = ranges[s].max_std - ranges[s].min_std;
    acc += static_cast<double>(seg.length_of(s)) * (dm * dm + ds * ds);
  }
  return acc;
}

// A candidate split under evaluation.
struct Candidate {
  Segmentation child_seg;
  int split_segment = -1;
  bool split_on_mean = true;
  double split_value = 0.0;
  double qos = std::numeric_limits<double>::infinity();
};

}  // namespace

core::BuildStats DsTree::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK(options_.initial_segments >= 1);
  HYDRA_CHECK(options_.max_segments >= options_.initial_segments);

  root_ = std::make_unique<Node>();
  root_->seg = Segmentation::Uniform(data.length(), options_.initial_segments);
  root_->ranges.resize(root_->seg.segments());

  for (size_t i = 0; i < data.size(); ++i) {
    const Prefix p = ComputePrefix(data[i]);
    Insert(static_cast<core::SeriesId>(i), p);
  }

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  // Leaf files hold the clustered raw series.
  stats.bytes_written = static_cast<int64_t>(data.bytes());
  int64_t leaves = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      ++leaves;
    } else {
      stack.push_back(n->left.get());
      stack.push_back(n->right.get());
    }
  }
  stats.random_writes = leaves;
  leaf_count_ = leaves;
  return stats;
}

void DsTree::SaveNode(const Node& node, io::IndexWriter* w) {
  w->WritePodVector(node.seg.ends);
  w->WritePodVector(node.ranges);
  w->WriteU64(node.count);
  w->WriteI32(node.depth);
  w->WriteBool(node.is_leaf);
  if (node.is_leaf) {
    w->WritePodVector(node.ids);
    return;
  }
  w->WritePodVector(node.child_seg.ends);
  w->WriteI32(node.split_segment);
  w->WriteBool(node.split_on_mean);
  w->WriteDouble(node.split_value);
  SaveNode(*node.left, w);
  SaveNode(*node.right, w);
}

std::unique_ptr<DsTree::Node> DsTree::LoadNode(io::IndexReader* r,
                                               size_t series_length,
                                               size_t series_count) {
  const io::IndexReader::NodeGuard guard(r);
  auto node = std::make_unique<Node>();
  node->seg.ends = r->ReadPodVector<uint32_t>();
  node->ranges = r->ReadPodVector<SegmentRange>();
  node->count = r->ReadU64();
  node->depth = r->ReadI32();
  node->is_leaf = r->ReadBool();
  // Stop on a latched error before recursing (zeroed reads would present
  // as an endless chain of internal nodes).
  if (!r->ok()) return node;
  if (node->seg.ends.empty() || node->seg.ends.back() != series_length ||
      node->ranges.size() != node->seg.segments()) {
    r->Fail("DSTree node segmentation does not cover the series length");
    return node;
  }
  if (node->is_leaf) {
    node->ids = r->ReadPodVector<core::SeriesId>();
    for (const core::SeriesId id : node->ids) {
      if (id >= series_count) {
        r->Fail("DSTree leaf entry is out of the dataset's range");
        return node;
      }
    }
    return node;
  }
  node->child_seg.ends = r->ReadPodVector<uint32_t>();
  node->split_segment = r->ReadI32();
  node->split_on_mean = r->ReadBool();
  node->split_value = r->ReadDouble();
  if (!r->ok()) return node;
  if (node->split_segment < 0 ||
      static_cast<size_t>(node->split_segment) >=
          node->child_seg.segments()) {
    r->Fail("DSTree internal node has an invalid split segment");
    return node;
  }
  node->left = LoadNode(r, series_length, series_count);
  node->right = LoadNode(r, series_length, series_count);
  return node;
}

void DsTree::DoSave(io::IndexWriter* writer) const {
  static_assert(std::is_trivially_copyable_v<SegmentRange>);
  writer->BeginSection("options");
  writer->WriteU64(options_.initial_segments);
  writer->WriteU64(options_.max_segments);
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteI64(leaf_count_);
  writer->EndSection();
  writer->BeginSection("tree");
  SaveNode(*root_, writer);
  writer->EndSection();
}

util::Status DsTree::DoOpen(io::IndexReader* reader,
                            const core::Dataset& data) {
  reader->EnterSection("options");
  options_.initial_segments = reader->ReadU64();
  options_.max_segments = reader->ReadU64();
  options_.leaf_capacity = reader->ReadU64();
  leaf_count_ = reader->ReadI64();
  reader->EnterSection("tree");
  if (!reader->ok()) return reader->status();
  data_ = &data;
  root_ = LoadNode(reader, data.length(), data.size());
  return reader->status();
}

void DsTree::Insert(core::SeriesId id, const Prefix& p) {
  Node* node = root_.get();
  while (true) {
    // Extend the envelope of every node on the path.
    const auto stats = StatsOn(p, node->seg);
    for (size_t s = 0; s < stats.size(); ++s) {
      node->ranges[s].Extend(stats[s], node->count == 0);
    }
    ++node->count;
    if (node->is_leaf) break;
    const auto& cs = node->child_seg;
    const SegmentStats st =
        StatOf(p, cs.begin_of(node->split_segment),
               cs.ends[node->split_segment]);
    const double v = node->split_on_mean ? st.mean : st.stddev;
    node = (v <= node->split_value ? node->left : node->right).get();
  }
  node->ids.push_back(id);
  if (node->ids.size() > options_.leaf_capacity) SplitLeaf(node);
}

void DsTree::SplitLeaf(Node* leaf) {
  const size_t count = leaf->ids.size();
  std::vector<Prefix> prefixes(count);
  for (size_t i = 0; i < count; ++i) {
    prefixes[i] = ComputePrefix((*data_)[leaf->ids[i]]);
  }

  // Enumerate candidate child segmentations: the current one (horizontal
  // splits) and, if allowed, each segment refined into two halves
  // (vertical splits).
  std::vector<Segmentation> child_segs;
  child_segs.push_back(leaf->seg);
  if (leaf->seg.segments() < options_.max_segments) {
    for (size_t s = 0; s < leaf->seg.segments(); ++s) {
      const uint32_t b = leaf->seg.begin_of(s);
      const uint32_t e = leaf->seg.ends[s];
      if (e - b < 2) continue;
      Segmentation refined = leaf->seg;
      refined.ends.insert(refined.ends.begin() + static_cast<long>(s),
                          (b + e) / 2);
      child_segs.push_back(std::move(refined));
    }
  }

  // Horizontal and vertical candidates are scored separately; a vertical
  // split (which refines the segmentation and deepens every future lower
  // bound computation) is only taken when it is clearly better than the
  // best horizontal one.
  Candidate best_horizontal;
  Candidate best_vertical;
  std::vector<double> values(count);
  for (const Segmentation& cs : child_segs) {
    const bool is_horizontal = cs.segments() == leaf->seg.segments();
    for (size_t s = 0; s < cs.segments(); ++s) {
      for (const bool on_mean : {true, false}) {
        for (size_t i = 0; i < count; ++i) {
          const SegmentStats st =
              StatOf(prefixes[i], cs.begin_of(s), cs.ends[s]);
          values[i] = on_mean ? st.mean : st.stddev;
        }
        // Median split value balances the children.
        std::vector<double> sorted = values;
        std::nth_element(sorted.begin(), sorted.begin() + count / 2,
                         sorted.end());
        const double split_value = sorted[count / 2];
        // Evaluate the QoS: count-weighted envelope size of the children.
        std::vector<SegmentRange> lo(cs.segments());
        std::vector<SegmentRange> hi(cs.segments());
        size_t n_lo = 0;
        size_t n_hi = 0;
        for (size_t i = 0; i < count; ++i) {
          const bool goes_lo = values[i] <= split_value;
          auto& ranges = goes_lo ? lo : hi;
          size_t& n = goes_lo ? n_lo : n_hi;
          const auto stats = StatsOn(prefixes[i], cs);
          for (size_t t = 0; t < cs.segments(); ++t) {
            ranges[t].Extend(stats[t], n == 0);
          }
          ++n;
        }
        if (n_lo == 0 || n_hi == 0) continue;  // degenerate
        // Box sizes are only comparable within one segmentation; normalize
        // by the parent's box over the same candidate segmentation so
        // vertical refinements compete fairly with horizontal splits.
        std::vector<SegmentRange> parent(cs.segments());
        for (size_t i = 0; i < count; ++i) {
          const auto stats = StatsOn(prefixes[i], cs);
          for (size_t t = 0; t < cs.segments(); ++t) {
            parent[t].Extend(stats[t], i == 0);
          }
        }
        const double parent_box = BoxSize(parent, cs);
        if (parent_box <= 0.0) continue;
        const double qos =
            (static_cast<double>(n_lo) * BoxSize(lo, cs) +
             static_cast<double>(n_hi) * BoxSize(hi, cs)) /
            (static_cast<double>(count) * parent_box);
        Candidate& best = is_horizontal ? best_horizontal : best_vertical;
        if (qos < best.qos) {
          best.child_seg = cs;
          best.split_segment = static_cast<int>(s);
          best.split_on_mean = on_mean;
          best.split_value = split_value;
          best.qos = qos;
        }
      }
    }
  }
  constexpr double kVerticalMargin = 0.6;
  const bool take_vertical =
      best_vertical.split_segment >= 0 &&
      (best_horizontal.split_segment < 0 ||
       best_vertical.qos < kVerticalMargin * best_horizontal.qos);
  Candidate& best = take_vertical ? best_vertical : best_horizontal;
  if (best.split_segment < 0) return;  // all candidates degenerate

  leaf->child_seg = best.child_seg;
  leaf->split_segment = best.split_segment;
  leaf->split_on_mean = best.split_on_mean;
  leaf->split_value = best.split_value;
  auto make_child = [&] {
    auto child = std::make_unique<Node>();
    child->seg = best.child_seg;
    child->ranges.resize(best.child_seg.segments());
    child->depth = leaf->depth + 1;
    return child;
  };
  leaf->left = make_child();
  leaf->right = make_child();
  for (size_t i = 0; i < count; ++i) {
    const SegmentStats st =
        StatOf(prefixes[i], best.child_seg.begin_of(best.split_segment),
               best.child_seg.ends[best.split_segment]);
    const double v = best.split_on_mean ? st.mean : st.stddev;
    Node* child = (v <= best.split_value ? leaf->left : leaf->right).get();
    const auto child_stats = StatsOn(prefixes[i], child->seg);
    for (size_t t = 0; t < child_stats.size(); ++t) {
      child->ranges[t].Extend(child_stats[t], child->count == 0);
    }
    ++child->count;
    child->ids.push_back(leaf->ids[i]);
  }
  leaf->ids.clear();
  leaf->ids.shrink_to_fit();
  leaf->is_leaf = false;
}

void DsTree::VisitLeaf(const Node& leaf, const core::QueryOrder& order,
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

core::QueryResult DsTree::DoSearchKnn(core::SeriesView query,
                                      const core::KnnPlan& plan) {
  HYDRA_CHECK(root_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(plan.k);
  core::KnnWorkers workers(&heap, &result.stats, plan);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const Prefix qp = ComputePrefix(query);

  // ng-approximate descent for the initial bsf, always on the calling
  // thread into the primary heap (its bound is published to every worker).
  Node* node = root_.get();
  while (!node->is_leaf) {
    const auto& cs = node->child_seg;
    const SegmentStats st = StatOf(qp, cs.begin_of(node->split_segment),
                                   cs.ends[node->split_segment]);
    const double v = node->split_on_mean ? st.mean : st.stddev;
    node = (v <= node->split_value ? node->left : node->right).get();
  }
  ++result.stats.nodes_visited;
  const Node* home = node;
  VisitLeaf(*home, order, plan, &heap, &result.stats);

  // Best-first traversal with the EAPCA node lower bound. Pruning against
  // bsf/(1+epsilon)^2 (plan.bound_scale) keeps every reported distance
  // within (1+epsilon) of the truth; with the default plan this is the
  // exact search, bit for bit. Caps and budgets only ever bind at width 1
  // (Execute's pure-exact gate).
  struct Item {
    double lb;
    const Node* node;
    bool operator<(const Item& other) const {
      return lb > other.lb;
    }
  };
  std::vector<int64_t> leaves(workers.workers(), 0);
  leaves[0] = 1;
  std::vector<uint8_t> stop(workers.workers(), 0);
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
        for (const Node* child :
             {item.node->left.get(), item.node->right.get()}) {
          if (child->count == 0) continue;
          const auto q_stats = StatsOn(qp, child->seg);
          const double lb =
              transform::EapcaNodeLbSq(q_stats, child->ranges, child->seg);
          ++stats.lower_bound_computations;
          if (lb < workers.heap(w).Bound() * plan.bound_scale) {
            push({lb, child});
          }
        }
      });

  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult DsTree::DoSearchRange(core::SeriesView query,
                                        const core::RangePlan& plan) {
  HYDRA_CHECK(root_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::RangeWorkers workers(plan.radius * plan.radius, &result.stats,
                             plan.query_threads);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const Prefix qp = ComputePrefix(query);

  // Engine traversal with the fixed r^2 bound: nodes are bounded before
  // they enter the frontier, so nothing is ever pruned at pop time and
  // every counter is traversal-order independent — the parallel sweep
  // charges exactly the serial counters.
  struct Item {
    double lb;
    const Node* node;
    bool operator<(const Item& other) const { return lb > other.lb; }
  };
  const double radius_sq = plan.radius * plan.radius;
  auto bounded = [&](const Node* node, core::SearchStats* stats)
      -> std::optional<Item> {
    if (node->count == 0) return std::nullopt;
    const auto q_stats = StatsOn(qp, node->seg);
    ++stats->lower_bound_computations;
    const double lb =
        transform::EapcaNodeLbSq(q_stats, node->ranges, node->seg);
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
        for (const Node* child :
             {item.node->left.get(), item.node->right.get()}) {
          if (const auto entry = bounded(child, &stats)) push(*entry);
        }
      });

  workers.Finish(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult DsTree::DoSearchKnnNg(core::SeriesView query, size_t k) {
  HYDRA_CHECK(root_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(k);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const Prefix qp = ComputePrefix(query);

  // One root-to-leaf path (Definition 7).
  Node* node = root_.get();
  while (!node->is_leaf) {
    const auto& cs = node->child_seg;
    const SegmentStats st = StatOf(qp, cs.begin_of(node->split_segment),
                                   cs.ends[node->split_segment]);
    const double v = node->split_on_mean ? st.mean : st.stddev;
    node = (v <= node->split_value ? node->left : node->right).get();
  }
  ++result.stats.nodes_visited;
  VisitLeaf(*node, order, core::KnnPlan{.k = k}, &heap, &result.stats);
  heap.ExtractSortedTo(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::Footprint DsTree::footprint() const {
  HYDRA_CHECK(root_ != nullptr);
  core::Footprint fp;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ++fp.total_nodes;
    fp.memory_bytes += static_cast<int64_t>(
        sizeof(Node) + n->ranges.size() * sizeof(SegmentRange) +
        n->seg.ends.size() * sizeof(uint32_t));
    if (n->is_leaf) {
      ++fp.leaf_nodes;
      fp.memory_bytes +=
          static_cast<int64_t>(n->ids.size() * sizeof(core::SeriesId));
      fp.leaf_fill_fractions.push_back(
          static_cast<double>(n->ids.size()) /
          static_cast<double>(options_.leaf_capacity));
      fp.leaf_depths.push_back(n->depth);
    } else {
      stack.push_back(n->left.get());
      stack.push_back(n->right.get());
    }
  }
  fp.disk_bytes = static_cast<int64_t>(data_->bytes());  // leaf files
  return fp;
}

double DsTree::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(root_ != nullptr);
  const Prefix qp = ComputePrefix(query);
  double sum = 0.0;
  int64_t leaves = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (!n->is_leaf) {
      stack.push_back(n->left.get());
      stack.push_back(n->right.get());
      continue;
    }
    if (n->ids.empty()) continue;
    const auto q_stats = StatsOn(qp, n->seg);
    const double lb =
        std::sqrt(transform::EapcaNodeLbSq(q_stats, n->ranges, n->seg));
    double true_sum = 0.0;
    for (const core::SeriesId id : n->ids) {
      true_sum += std::sqrt(core::SquaredEuclidean(query, (*data_)[id]));
    }
    const double mean_true = true_sum / static_cast<double>(n->ids.size());
    if (mean_true > 0.0) {
      sum += lb / mean_true;
      ++leaves;
    }
  }
  return leaves == 0 ? 0.0 : sum / static_cast<double>(leaves);
}

}  // namespace hydra::index
