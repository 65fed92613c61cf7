#include "util/lockdep.h"

#if PFM_LOCKDEP_ON

#include <map>
#include <memory>
#include <mutex>  // pfm-lint: allow(raw-mutex)
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace pfm::lockdep {

struct LockClass {
  std::string name;
};

namespace {

struct Edge {
  /// The acquiring thread's held stack when this edge was first recorded —
  /// "the other side" of an inversion report.
  std::string holder_stack;
};

struct Graph {
  // Lockdep's own leaf lock; must be a raw std::mutex, not pfm::Mutex, or
  // every acquisition would recurse into the tracker.
  std::mutex mu;  // pfm-lint: allow(raw-mutex)
  std::map<const LockClass*, std::map<const LockClass*, Edge>> adj;
  /// Bumped by reset_for_test to invalidate per-thread edge caches.
  std::atomic<std::uint64_t> epoch{0};
};

// Intentionally leaked: static-destruction order is unknowable relative to
// any static pfm::Mutex owner, whose teardown still calls the hooks.
Graph& graph() {
  static Graph* g = new Graph;
  return *g;
}

struct ThreadState {
  std::vector<const LockClass*> held;
  /// Edges this thread has already pushed into the graph; lets the hot
  /// path (same nesting repeated) skip the global lock.
  std::set<std::pair<const LockClass*, const LockClass*>> seen_edges;
  std::uint64_t cache_epoch = 0;
  ~ThreadState();
};

/// Trivially destructible, so it outlives the ThreadState TLS slot. A
/// thread's TLS destructors can run before the last pfm::Mutex use on that
/// thread — on the main thread, an atexit-destroyed static that owns a
/// pfm::Mutex still locks and unlocks during shutdown — and the
/// hooks must then degrade to no-ops instead of touching freed storage
/// (the same teardown-order reason graph() is leaked).
thread_local bool t_state_dead = false;

ThreadState::~ThreadState() { t_state_dead = true; }

ThreadState* state() {
  if (t_state_dead) return nullptr;
  static thread_local ThreadState s;
  return &s;
}

std::string stack_string(const std::vector<const LockClass*>& held) {
  if (held.empty()) return "(none)";
  std::string s;
  for (const LockClass* c : held) {
    if (!s.empty()) s += " -> ";
    s += c->name;
  }
  return s;
}

/// Depth-first search for a path from `from` to `to` in the acquisition
/// graph; fills `path` (inclusive of both endpoints) when found. Caller
/// holds graph().mu.
bool find_path(const LockClass* from, const LockClass* to,
               std::vector<const LockClass*>& path) {
  path.push_back(from);
  if (from == to) return true;
  const auto it = graph().adj.find(from);
  if (it != graph().adj.end()) {
    for (const auto& [next, edge] : it->second) {
      bool revisit = false;
      for (const LockClass* seen : path)
        if (seen == next) revisit = true;
      if (revisit) continue;
      if (find_path(next, to, path)) return true;
    }
  }
  path.pop_back();
  return false;
}

std::string path_string(const std::vector<const LockClass*>& path) {
  std::string s;
  for (const LockClass* c : path) {
    if (!s.empty()) s += " -> ";
    s += "'" + c->name + "'";
  }
  return s;
}

}  // namespace

const LockClass* intern_class(const char* name) {
  static std::mutex mu;  // pfm-lint: allow(raw-mutex)
  static auto* table = new std::map<std::string, std::unique_ptr<LockClass>>;
  const std::string key = name != nullptr ? name : "pfm::Mutex";
  std::lock_guard<std::mutex> lk(mu);  // pfm-lint: allow(raw-mutex)
  std::unique_ptr<LockClass>& slot = (*table)[key];
  if (slot == nullptr) slot = std::make_unique<LockClass>(LockClass{key});
  return slot.get();
}

void note_acquire(const LockClass* c) {
  ThreadState* ts = state();
  if (ts == nullptr) return;
  std::vector<const LockClass*>& held = ts->held;
  for (const LockClass* h : held) {
    PFM_CHECK(h != c,
              "lockdep: acquiring lock class '", c->name,
              "' already held by this thread (self-deadlock on the "
              "non-recursive lock, or an unordered same-name pair; held stack: ",
              stack_string(held), ")");
  }
  if (held.empty()) return;

  Graph& g = graph();
  const std::uint64_t epoch = g.epoch.load(std::memory_order_acquire);
  if (ts->cache_epoch != epoch) {
    ts->seen_edges.clear();
    ts->cache_epoch = epoch;
  }
  bool all_seen = true;
  for (const LockClass* h : held)
    if (ts->seen_edges.count({h, c}) == 0) all_seen = false;
  if (all_seen) return;

  std::lock_guard<std::mutex> lk(g.mu);  // pfm-lint: allow(raw-mutex)
  for (const LockClass* h : held) {
    auto& row = g.adj[h];
    if (row.count(c) != 0) {
      ts->seen_edges.insert({h, c});
      continue;
    }
    // Adding h -> c; a pre-existing path c ->* h makes the order cyclic.
    std::vector<const LockClass*> path;
    if (find_path(c, h, path)) {
      const Edge& prior = g.adj.at(path[0]).at(path[1]);
      PFM_CHECK(false, "lockdep: lock-order inversion acquiring '", c->name,
                "'\n  this thread's acquisition stack: ", stack_string(held),
                " -> ", c->name,
                "\n  conflicts with established order ", path_string(path),
                "\n  first recorded with acquisition stack: ",
                prior.holder_stack, " -> ", path[1]->name);
    }
    row.emplace(c, Edge{stack_string(held)});
    ts->seen_edges.insert({h, c});
  }
}

void note_held(const LockClass* c) {
  if (ThreadState* ts = state()) ts->held.push_back(c);
}

void note_release(const LockClass* c) {
  ThreadState* ts = state();
  if (ts == nullptr) return;
  std::vector<const LockClass*>& held = ts->held;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == c) {
      held.erase(std::next(it).base());
      return;
    }
  }
  PFM_CHECK(false, "lockdep: releasing lock class '", c->name,
            "' this thread does not hold (held stack: ", stack_string(held),
            ")");
}

void check_no_locks_held(const char* what) {
  ThreadState* ts = state();
  if (ts == nullptr) return;
  PFM_CHECK(ts->held.empty(), "lockdep: ", what,
            " would block while this thread holds pfm::Mutex(es): ",
            stack_string(ts->held),
            " — blocking channel waits must run lock-free");
}

std::size_t held_count() {
  ThreadState* ts = state();
  return ts != nullptr ? ts->held.size() : 0;
}

void reset_for_test() {
  ThreadState* ts = state();
  if (ts != nullptr) {
    PFM_CHECK(ts->held.empty(), "lockdep: reset_for_test with locks held: ",
              stack_string(ts->held));
  }
  Graph& g = graph();
  std::lock_guard<std::mutex> lk(g.mu);  // pfm-lint: allow(raw-mutex)
  g.adj.clear();
  g.epoch.fetch_add(1, std::memory_order_acq_rel);
  if (ts != nullptr) {
    ts->seen_edges.clear();
    ts->cache_epoch = g.epoch.load(std::memory_order_acquire);
  }
}

}  // namespace pfm::lockdep

#endif  // PFM_LOCKDEP_ON
