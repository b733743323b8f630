// Shared best-first traversal engine and the tree search driver.
//
// BestFirstTraverse is the candidate-queue loop, with optional
// intra-query parallelism (KnnPlan::query_threads) in the style of the
// parallel-indexing literature (MESSI/ParIS+ work queues): N workers drain
// a lock-sharded priority queue cooperatively, pruning against
// worker-local answer heaps that publish through one lock-free
// SharedBound. On top of it, TreeSearchKnn / TreeSearchNg /
// TreeSearchRange are the one query plan of the tree indexes: DSTree,
// iSAX2+ and SFA answer k-NN, ng and range through them, R*-tree its
// k-NN. M-tree calls BestFirstTraverse directly (it prunes on unsquared
// distances with a per-item centre distance), R*-tree range keeps its
// depth-first scan (the DFS order fixes its skip-sequential cursor
// charges), and ADS+ scans id ranges with ParallelScan.
//
// Determinism contract: the serial path (workers == 1) reproduces the
// classic single-queue best-first loop bit for bit — answers AND work
// counters. The parallel path guarantees bit-identical *answers* for exact
// k-NN and range queries at any worker count (worker-local heaps are merged
// by (dist_sq, id), and every worker's pruning bound is always >= the final
// k-th true distance — the SharedBound soundness contract — so no true
// neighbor is ever pruned or early-abandoned away); per-worker work
// counters vary with bound-arrival timing, like the sharded fan-out.
// Order-dependent disciplines (epsilon shrink, delta leaf caps, explicit
// budgets) are visit-order-sensitive, so SearchMethod::Execute only ever
// sets query_threads > 1 on pure-exact unbudgeted plans; the engine still
// honors every KnnPlan knob on the serial path.
#ifndef HYDRA_CORE_TRAVERSAL_H_
#define HYDRA_CORE_TRAVERSAL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "core/knn.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::core {

/// Drains a best-first candidate queue with `workers` cooperating workers.
///
/// `Item` is the driver's frontier entry (a lower bound plus a node
/// pointer) whose operator< orders the priority queue exactly like the
/// drivers' private loops did (greater-lb-first, i.e. a min-heap on the
/// bound). `pruned(item, w)` is the driver's stop test — "this lower bound
/// has reached worker w's current pruning bound" plus any stop/budget
/// flags; `expand(item, w, push)` visits the item (leaf scan or child
/// expansion), pushing new frontier entries through `push`.
///
/// Serial path (workers <= 1): seeds are pushed in order into one
/// std::priority_queue and the classic loop runs on the calling thread —
/// pop, break when pruned, expand — bit-identical to the drivers' old
/// private loops. A pruned pop ends the whole traversal (every remaining
/// item's bound is at least as large).
///
/// Parallel path: one mutex-guarded priority queue per worker, seeds dealt
/// round-robin, workers pop their own queue first and steal from others
/// when empty; `push` appends to the pushing worker's own queue. An atomic
/// outstanding-item counter provides termination (a worker exits when every
/// queue is empty and no item is mid-expand). A pruned pop discards that
/// item — and, when it came from the worker's own queue (where nobody else
/// can interleave a push), the whole queue, since the popped item was its
/// minimum and pruning bounds only ever tighten. Worker 0 always runs on
/// the calling thread; workers 1..N-1 are spawned per traversal (the
/// fixed util::ThreadPool must not be nested from a pool worker, and
/// queries arrive on pool workers under batch and shard fan-out).
template <typename Item>
void BestFirstTraverse(
    size_t workers, const std::vector<Item>& seeds,
    const std::function<bool(const Item&, size_t)>& pruned,
    const std::function<void(const Item&, size_t,
                             const std::function<void(Item)>&)>& expand) {
  if (workers <= 1) {
    HYDRA_OBS_SPAN_ARG("traversal", "worker", 0);
    std::priority_queue<Item> queue;
    for (const Item& seed : seeds) queue.push(seed);
    const std::function<void(Item)> push = [&queue](Item item) {
      queue.push(std::move(item));
    };
    while (!queue.empty()) {
      const Item item = queue.top();
      queue.pop();
      if (pruned(item, 0)) break;
      expand(item, 0, push);
    }
    return;
  }

  struct Slot {
    std::mutex mu;
    std::priority_queue<Item> queue;
  };
  std::vector<Slot> slots(workers);
  for (size_t i = 0; i < seeds.size(); ++i) {
    slots[i % workers].queue.push(seeds[i]);
  }
  std::atomic<int64_t> outstanding{static_cast<int64_t>(seeds.size())};

  auto worker_loop = [&](size_t w) {
    HYDRA_OBS_SPAN_ARG("traversal", "worker", w);
    const std::function<void(Item)> push = [&slots, &outstanding,
                                            w](Item item) {
      outstanding.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(slots[w].mu);
      slots[w].queue.push(std::move(item));
    };
    for (;;) {
      std::optional<Item> item;
      size_t from = w;
      for (size_t scan = 0; scan < workers && !item.has_value(); ++scan) {
        const size_t q = (w + scan) % workers;
        std::lock_guard<std::mutex> lock(slots[q].mu);
        if (!slots[q].queue.empty()) {
          item = slots[q].queue.top();
          slots[q].queue.pop();
          from = q;
        }
      }
      if (!item.has_value()) {
        if (outstanding.load(std::memory_order_acquire) == 0) return;
        std::this_thread::yield();
        continue;
      }
      if (pruned(*item, w)) {
        int64_t cleared = 1;
        if (from == w) {
          // Only this worker pushes into its own queue, so nothing can
          // have arrived since the pop: every remaining item is >= the
          // pruned minimum, and bounds only tighten — the queue is dead.
          std::lock_guard<std::mutex> lock(slots[w].mu);
          while (!slots[w].queue.empty()) {
            slots[w].queue.pop();
            ++cleared;
          }
        }
        outstanding.fetch_sub(cleared, std::memory_order_acq_rel);
        continue;
      }
      expand(*item, w, push);
      outstanding.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) threads.emplace_back(worker_loop, w);
  worker_loop(0);
  for (std::thread& t : threads) t.join();
}

/// Block-cyclic parallel scan over [0, count): `scan(w, begin, end)` is
/// called for disjoint blocks of `block` indices, workers grabbing the next
/// block off an atomic cursor. The serial path (workers <= 1) makes exactly
/// one call, scan(0, 0, count), so a driver's old flat loop moves into the
/// callback unchanged and stays bit-identical. ADS+'s summary pass and
/// skip-sequential refinement use this (its unit of work is a flat id
/// range, not a tree frontier).
inline void ParallelScan(
    size_t workers, size_t count, size_t block,
    const std::function<void(size_t, size_t, size_t)>& scan) {
  HYDRA_CHECK(block > 0);
  if (count == 0) return;
  if (workers <= 1) {
    HYDRA_OBS_SPAN_ARG("scan", "worker", 0);
    scan(0, 0, count);
    return;
  }
  std::atomic<size_t> cursor{0};
  auto worker_loop = [&](size_t w) {
    HYDRA_OBS_SPAN_ARG("scan", "worker", w);
    for (;;) {
      const size_t begin = cursor.fetch_add(block, std::memory_order_relaxed);
      if (begin >= count) return;
      scan(w, begin, std::min(begin + block, count));
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) threads.emplace_back(worker_loop, w);
  worker_loop(0);
  for (std::thread& t : threads) t.join();
}

/// Per-worker answer heaps and ledgers of one intra-query-parallel k-NN
/// traversal, plus the deterministic merge.
///
/// Worker 0 runs on the calling thread and answers into `primary` (the
/// driver's scratch heap, which the ng-descent bsf phase has usually
/// already primed) with `primary_stats` (the result ledger, already
/// carrying the descent's counters); workers 1..N-1 get engine-owned
/// plain heaps and fresh ledgers (spawned threads must not touch the
/// calling thread's thread_local scratch).
///
/// Bound wiring: with one worker this attaches plan.shared_bound to the
/// primary heap — exactly what the drivers did, a no-op when null. With
/// N > 1 every worker heap attaches to one SharedBound — the plan's when
/// sharded (shards x workers share a single bound per query) or an
/// engine-local one otherwise — so each worker's Bound() is
/// min(local k-th, global published k-th) and never drops below the final
/// k-th true distance.
class KnnWorkers {
 public:
  KnnWorkers(KnnHeap* primary, SearchStats* primary_stats,
             const KnnPlan& plan)
      : primary_(primary),
        primary_stats_(primary_stats),
        workers_(plan.query_threads < 1 ? 1 : plan.query_threads) {
    if (workers_ == 1) {
      primary_->ShareBound(plan.shared_bound);
      return;
    }
    SharedBound* bound =
        plan.shared_bound != nullptr ? plan.shared_bound : &own_bound_;
    primary_->ShareBound(bound);
    extra_heaps_.resize(workers_ - 1);
    extra_stats_.resize(workers_ - 1);
    for (KnnHeap& heap : extra_heaps_) {
      heap.Reset(plan.k);
      heap.ShareBound(bound);
    }
  }

  size_t workers() const { return workers_; }

  KnnHeap& heap(size_t w) {
    return w == 0 ? *primary_ : extra_heaps_[w - 1];
  }

  SearchStats& stats(size_t w) {
    return w == 0 ? *primary_stats_ : extra_stats_[w - 1];
  }

  /// Deterministic merge: extracts every worker's candidates, sorts the
  /// union by (dist_sq, id) — the repo-wide Neighbor order — and keeps the
  /// k best; folds the extra workers' ledgers into the primary one in
  /// worker order. With one worker this is exactly the old
  /// ExtractSortedTo, counters untouched.
  void Finish(size_t k, std::vector<Neighbor>* out) {
    primary_->ExtractSortedTo(out);
    if (workers_ == 1) return;
    std::vector<Neighbor> part;
    for (KnnHeap& heap : extra_heaps_) {
      heap.ExtractSortedTo(&part);
      out->insert(out->end(), part.begin(), part.end());
    }
    std::sort(out->begin(), out->end());
    if (out->size() > k) out->resize(k);
    for (const SearchStats& s : extra_stats_) primary_stats_->Add(s);
  }

 private:
  KnnHeap* primary_;
  SearchStats* primary_stats_;
  size_t workers_;
  SharedBound own_bound_;
  std::vector<KnnHeap> extra_heaps_;
  std::vector<SearchStats> extra_stats_;
};

/// The range-query counterpart of KnnWorkers: one RangeCollector and one
/// ledger per worker. Range pruning uses the fixed r^2 bound, so the set
/// of nodes visited — and therefore every counter — is traversal-order
/// independent; the merge only has to concatenate, sort by (dist_sq, id),
/// and sum ledgers in worker order.
class RangeWorkers {
 public:
  RangeWorkers(double radius_sq, SearchStats* primary_stats,
               size_t query_threads)
      : primary_stats_(primary_stats),
        workers_(query_threads < 1 ? 1 : query_threads) {
    collectors_.reserve(workers_);
    for (size_t w = 0; w < workers_; ++w) collectors_.emplace_back(radius_sq);
    extra_stats_.resize(workers_ - 1);
  }

  size_t workers() const { return workers_; }

  RangeCollector& collector(size_t w) { return collectors_[w]; }

  SearchStats& stats(size_t w) {
    return w == 0 ? *primary_stats_ : extra_stats_[w - 1];
  }

  /// Concatenates every worker's matches sorted by (dist_sq, id) into
  /// `*out` and folds the extra ledgers into the primary one.
  void Finish(std::vector<Neighbor>* out) {
    *out = collectors_[0].TakeSorted();
    if (workers_ == 1) return;
    for (size_t w = 1; w < workers_; ++w) {
      const std::vector<Neighbor> part = collectors_[w].TakeSorted();
      out->insert(out->end(), part.begin(), part.end());
    }
    std::sort(out->begin(), out->end());
    for (const SearchStats& s : extra_stats_) primary_stats_->Add(s);
  }

 private:
  SearchStats* primary_stats_;
  size_t workers_;
  std::vector<RangeCollector> collectors_;
  std::vector<SearchStats> extra_stats_;
};

/// The tree search driver. A `Tree` is a per-query view of one index,
/// constructed as Tree(owner, query) (it computes the query's summaries
/// once), that supplies what is specific to the index:
///
///   using Node = ...;
///   const Node* Home(SearchStats*);    // exact search's first leaf
///   const Node* NgLeaf(SearchStats*);  // ng's one leaf (ng only)
///   const Node* Root();    // optional, see below
///   bool IsLeaf(const Node&);
///   int64_t leaf_count();  // leaves the delta rule counts (0: no rule)
///   void ForEachTop(emit);                 // bounded top frontier
///   void ForEachChild(const Node&, emit);  // bounded children
///   void VisitLeaf(const Node&, Sink*, SearchStats*, const KnnPlan&);
///
/// Home and NgLeaf return nullptr for none and charge any lower bound
/// their descent computes to the given stats.
/// `emit(const Node*, double lb)` hands over one node with its squared
/// lower bound; the driver counts it as one lower-bound computation and
/// admits it against the query's bound (children an index skips without
/// bounding, such as empty ones, are simply never emitted). VisitLeaf
/// verifies a leaf into a KnnHeap or RangeCollector, honoring the plan's
/// bound_scale and max_raw where its entries are filtered or read.
///
/// Seeding: a tree with a Root() starts k-NN at the root with lower
/// bound 0, unbounded and uncounted; without one (iSAX2+'s first level has
/// no single root) k-NN bounds ForEachTop. Range search always bounds
/// ForEachTop.
template <typename Node>
struct TreeItem {
  double lb;
  const Node* node;
  bool operator<(const TreeItem& other) const {
    return lb > other.lb;  // min-heap on the bound
  }
};

/// Exact, epsilon- and delta-epsilon-approximate and budgeted k-NN. The
/// home leaf is verified first on the calling thread into the primary
/// heap (its bound is published to every worker); a budget already spent
/// there makes the answer final. The best-first traversal then prunes
/// against bsf * plan.bound_scale (bsf/(1+epsilon)^2, so every reported
/// distance is within (1+epsilon) of the truth; exact with the default
/// plan), skips the home leaf, and stops a worker once LeafCapReached
/// fires (the delta rule over leaf_count() and the max_leaves budget).
/// Caps and budgets only ever bind at width 1 (Execute's pure-exact
/// gate), so the per-worker stop flags never diverge.
template <typename Tree, typename Owner>
QueryResult TreeSearchKnn(const Owner& owner, SeriesView query,
                          const KnnPlan& plan) {
  using Node = typename Tree::Node;
  using Item = TreeItem<Node>;
  const util::WallTimer timer;
  Tree tree(owner, query);
  QueryResult result;
  KnnHeap& heap = ScratchKnnHeap(plan.k);
  KnnWorkers workers(&heap, &result.stats, plan);
  std::vector<int64_t> leaves(workers.workers(), 0);
  const Node* home = tree.Home(&result.stats);
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    tree.VisitLeaf(*home, &heap, &result.stats, plan);
    leaves[0] = 1;
  }

  if (!result.stats.budget_exhausted) {
    auto bound = [&](size_t w) {
      return workers.heap(w).Bound() * plan.bound_scale;
    };
    std::vector<Item> seeds;
    if constexpr (requires(Tree& t) { t.Root(); }) {
      seeds.push_back({0.0, tree.Root()});
    } else {
      tree.ForEachTop([&](const Node* node, double lb) {
        ++result.stats.lower_bound_computations;
        if (lb < bound(0)) seeds.push_back({lb, node});
      });
    }
    std::vector<uint8_t> stop(workers.workers(), 0);
    BestFirstTraverse<Item>(
        workers.workers(), seeds,
        [&](const Item& item, size_t w) {
          return stop[w] != 0 || workers.stats(w).budget_exhausted ||
                 item.lb >= bound(w);
        },
        [&](const Item& item, size_t w,
            const std::function<void(Item)>& push) {
          SearchStats& stats = workers.stats(w);
          ++stats.nodes_visited;
          if (tree.IsLeaf(*item.node)) {
            if (item.node == home) return;
            if (plan.LeafCapReached(leaves[w], tree.leaf_count(), &stats)) {
              stop[w] = 1;
              return;
            }
            tree.VisitLeaf(*item.node, &workers.heap(w), &stats, plan);
            ++leaves[w];
            return;
          }
          tree.ForEachChild(*item.node, [&](const Node* child, double lb) {
            ++stats.lower_bound_computations;
            if (lb < bound(w)) push({lb, child});
          });
        });
  }

  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

/// ng-approximate k-NN (Definition 7): the one leaf of the ng descent.
template <typename Tree, typename Owner>
QueryResult TreeSearchNg(const Owner& owner, SeriesView query, size_t k) {
  const util::WallTimer timer;
  Tree tree(owner, query);
  QueryResult result;
  KnnHeap& heap = ScratchKnnHeap(k);
  if (const auto* leaf = tree.NgLeaf(&result.stats)) {
    ++result.stats.nodes_visited;
    tree.VisitLeaf(*leaf, &heap, &result.stats, KnnPlan{});
  }
  heap.ExtractSortedTo(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

/// Exact r-range search. A node is admitted when its lower bound is at
/// most r^2 — inclusive, like RangeCollector, so a series at distance
/// exactly r is never pruned away. Nodes are bounded before they enter
/// the frontier, so nothing is pruned at pop time and every counter is
/// traversal-order independent: the parallel sweep charges exactly the
/// serial counters.
template <typename Tree, typename Owner>
QueryResult TreeSearchRange(const Owner& owner, SeriesView query,
                            const RangePlan& plan) {
  using Node = typename Tree::Node;
  using Item = TreeItem<Node>;
  const util::WallTimer timer;
  Tree tree(owner, query);
  QueryResult result;
  const double radius_sq = plan.radius * plan.radius;
  RangeWorkers workers(radius_sq, &result.stats, plan.query_threads);
  std::vector<Item> seeds;
  tree.ForEachTop([&](const Node* node, double lb) {
    ++result.stats.lower_bound_computations;
    if (lb <= radius_sq) seeds.push_back({lb, node});
  });
  const KnnPlan unbudgeted;
  BestFirstTraverse<Item>(
      workers.workers(), seeds, [](const Item&, size_t) { return false; },
      [&](const Item& item, size_t w,
          const std::function<void(Item)>& push) {
        SearchStats& stats = workers.stats(w);
        ++stats.nodes_visited;
        if (tree.IsLeaf(*item.node)) {
          tree.VisitLeaf(*item.node, &workers.collector(w), &stats,
                         unbudgeted);
          return;
        }
        tree.ForEachChild(*item.node, [&](const Node* child, double lb) {
          ++stats.lower_bound_computations;
          if (lb <= radius_sq) push({lb, child});
        });
      });
  workers.Finish(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

}  // namespace hydra::core

#endif  // HYDRA_CORE_TRAVERSAL_H_
