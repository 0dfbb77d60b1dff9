// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Each bulk transfer is a *flow* along a fixed link path
// (src NIC up → [rack uplink → rack downlink] → dst NIC down).
// Whenever the flow set changes, rates are re-solved by progressive
// filling (freeze the bottleneck, subtract, repeat) and the earliest
// completion is scheduled. This is the standard fluid approximation used in
// datacenter simulators; it reproduces the contention and hotspot effects
// the paper's throughput curves depend on without per-packet events.
//
// Solver engineering (the sim's dominant CPU cost at cluster scale):
//
//  - Path-class aggregation: flows sharing one (src, dst, cap) triple share
//    one link path and therefore one max-min rate — a shuffle storm's
//    thousands of identical src→rack→dst streams collapse into a handful
//    of classes. Progressive filling runs over classes weighted by member
//    count, not over individual flows.
//  - Bottleneck-local levels: a solve seeds link loads from per-link member
//    counts kept by class arrivals and departures, O(live links + C) for C
//    classes; each level then costs O(live links +
//    classes on that level's bottleneck links). Links with no unfrozen
//    class drop out of the scan, only links near the minimum share are
//    tested as bottlenecks, capped classes are swept only when the
//    smallest cap can bind, and bottleneck candidates come from a
//    link→class index instead of a pass over every class. Candidates are
//    frozen in creation order with the same arithmetic as a full sweep, so
//    the rates are bit-identical to it.
//  - Link→class index: each link lists the active class slots crossing it,
//    updated when a class is created or its slot recycled (no per-solve
//    rebuild).
//  - Warm start: a solve logs its levels (share, freezes) and its freezes
//    (class slot, rate) in order, and every class whose member count
//    changes afterwards is marked, along with the links it crosses. The
//    next solve replays logged levels, applying their freezes without a
//    scan, while (a) every changed link's fair share, under both its new
//    and its logged member count, sits more than the near-minimum band
//    above the level's share, (b) no changed capped class has a cap at or
//    below it, and (c) no changed class froze in the level. Only
//    unchanged classes froze before the level, so an unchanged link (one
//    no changed class crosses) has seen the same subtractions in the same
//    order as in the logged solve, and a changed link has the same
//    remaining capacity. By (a) the level's minimum lies on unchanged
//    links in both solves, so the share repeats bit for bit; with (b) the
//    cap round repeats, and changed links, more than the band above the
//    share, pass no bottleneck test, so the bottleneck round repeats.
//    ((c) follows from (a) and (b): a changed class that froze at the
//    level did so at its cap or through a changed link at the share under
//    its logged count. It is checked anyway, at O(changed classes).) From
//    the first level that fails a test the bottleneck-local loop runs as
//    usual and extends the log, so rates are bit-identical to a cold
//    solve. The log is dropped when capacities change, on legacy solves
//    and when no flow remains.
//  - Instant-batched re-solve: a flow arrival/departure marks rates dirty;
//    the solve runs ONCE at the end of the simulated instant (via the
//    simulator's flush hook), so a burst of same-timestamp arrivals pays
//    for one solve instead of one per flow. Rates inside an instant are
//    unobservable (no simulated time passes), so this is exact.
//  - Completion-retime damping: the wake-up timer is left in place when a
//    re-solve does not move the earliest completion time.
//
// The pre-optimization solver (full per-flow progressive filling on every
// change, no damping) is kept in the binary as the oracle and baseline:
// enable with ClusterConfig::legacy_solver or BS_LEGACY_SOLVER=1 in the
// environment. Both paths are individually bit-reproducible; their rates
// agree to floating-point round-off (gated by net_test and bench/ext9).
//
// Control messages (RPCs) are modeled as fixed one-way latencies — they are
// small enough (hundreds of bytes) that their bandwidth use is negligible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "net/cluster.h"
#include "net/liveness.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::obs {
class Counter;
class Gauge;
class Histogram;
class Tracer;
}  // namespace bs::obs

namespace bs::net {

// Per-node FIFO disk. Concurrent requests queue; each pays a positioning
// overhead plus size/bandwidth. Shared via reference from services on the
// same node.
class Disk {
 public:
  Disk(sim::Simulator& sim, double read_bps, double write_bps, double seek_s)
      : sim_(sim), gate_(sim, 1), read_bps_(read_bps), write_bps_(write_bps),
        seek_s_(seek_s) {}

  // Observability wiring (done by Network at construction): byte counters
  // are shared cluster-wide aggregates; spans carry the owning node id.
  void attach_obs(obs::Tracer* tracer, uint32_t node, obs::Counter* read_bytes,
                  obs::Counter* write_bytes) {
    tracer_ = tracer;
    node_ = node;
    m_read_bytes_ = read_bytes;
    m_write_bytes_ = write_bytes;
  }

  sim::Task<void> read(double bytes) { return io(bytes, /*is_read=*/true); }
  sim::Task<void> write(double bytes) { return io(bytes, /*is_read=*/false); }

  double bytes_read() const { return bytes_read_; }
  double bytes_written() const { return bytes_written_; }
  double write_bps() const { return write_bps_ * scale_; }
  double read_bps() const { return read_bps_ * scale_; }

  // Degradation knob (slow-node fault injection): scales both directions'
  // bandwidth. 1 = healthy. Requests already queued finish at the rate in
  // effect when they reach the head of the FIFO.
  void set_scale(double scale) { scale_ = scale; }
  double scale() const { return scale_; }

 private:
  sim::Task<void> io(double bytes, bool is_read);

  sim::Simulator& sim_;
  sim::Semaphore gate_;
  double read_bps_;
  double write_bps_;
  double seek_s_;
  double scale_ = 1.0;
  double bytes_read_ = 0;
  double bytes_written_ = 0;
  obs::Tracer* tracer_ = nullptr;
  uint32_t node_ = 0;
  obs::Counter* m_read_bytes_ = nullptr;
  obs::Counter* m_write_bytes_ = nullptr;
};

// Degraded-node performance, driven by the fault injector's slow-node
// scenarios (a failing disk, a flaky NIC negotiation, a thermally
// throttled CPU). Each factor scales the healthy speed: 1 = nominal,
// 0.25 = four times slower.
struct NodePerf {
  double nic = 1.0;   // both NIC directions (link capacities)
  double disk = 1.0;  // local disk bandwidth
  double cpu = 1.0;   // task compute speed (consumed by schedulers/engines)
};

// Solver introspection for benches and tests (bench/ext9, net_test).
// The work counters are deterministic and mirrored as net/solver_levels,
// net/solver_link_visits, net/solver_class_visits,
// net/solver_replayed_levels and net/solver_replayed_freezes; the legacy
// backend counts levels only.
struct SolverStats {
  uint64_t class_solves = 0;    // instant-batched path-class re-solves
  uint64_t legacy_solves = 0;   // full per-flow re-solves (legacy path)
  uint64_t retimes_scheduled = 0;
  uint64_t retimes_damped = 0;  // skipped: earliest completion unchanged
  uint64_t path_classes_created = 0;
  size_t active_path_classes = 0;
  uint64_t levels = 0;        // progressive-filling levels solved by a scan,
                              // summed over solves
  uint64_t link_visits = 0;   // links read by the levels: fair-share scans
                              // and the bottleneck rounds' near-minimum links
  uint64_t class_visits = 0;  // class entries read: seeding, cap sweeps and
                              // link-index scans of bottleneck links
  uint64_t replayed_levels = 0;   // levels warm-started from the last solve
  uint64_t replayed_freezes = 0;  // class freezes those levels applied
};

class Network {
 public:
  Network(sim::Simulator& sim, const ClusterConfig& cfg);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  sim::Simulator& simulator() { return sim_; }

  // Bulk data transfer; completes when the last byte arrives under max-min
  // fair sharing. `rate_cap` additionally caps this flow's rate (used to
  // model per-stream protocol inefficiencies); 0 means uncapped.
  sim::Task<void> transfer(NodeId src, NodeId dst, double bytes,
                           double rate_cap = 0);

  // One-way control-message latency.
  sim::Task<void> control(NodeId src, NodeId dst);

  // --- node-down semantics (driven by the fault injector) ---
  //
  // The network holds the ground truth of which nodes are powered on. A
  // message *to* a down node is lost; the caller only learns by timeout.
  // In-flight bulk flows are not retroactively aborted (the fluid model
  // completes them); the receiving service discards the bytes instead —
  // see Provider/DataNode down-state handling.
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const { return up_[node]; }
  // Ground-truth liveness as a LivenessView (for tests and wiring).
  const LivenessView& ground_truth() const { return truth_; }
  // How many times this node has lost power (incremented on every up→down
  // transition). Anything kept only on the node's volatile or wiped local
  // storage — MapReduce intermediate spills above all — is gone across an
  // incarnation change even if the node later comes back: callers record
  // the incarnation at write time and treat a mismatch as data loss.
  uint64_t incarnation(NodeId node) const { return incarnation_[node]; }

  // Bulk transfer that honors the node-down ground truth, per the same
  // semantics as try_control: if either endpoint is already down when the
  // stream would start, the caller waits out the connection timeout and
  // gets false. A transfer in flight when an endpoint loses power still
  // completes in the fluid model (see above), but the bytes went to — or
  // came from — a dead node: the caller gets false and must treat the
  // fetch as failed. The shuffle path of the MapReduce engine feeds its
  // fetch-failure detection from exactly this.
  sim::Task<bool> try_transfer(NodeId src, NodeId dst, double bytes,
                               double rate_cap = 0);
  // Local disk I/O guarded by node power: false immediately when the node
  // is already off (nothing on a dead node can issue I/O), and false after
  // the I/O when the node lost power mid-operation (the write never hit
  // the platter / the read never reached its consumer).
  sim::Task<bool> try_disk_read(NodeId node, double bytes);
  sim::Task<bool> try_disk_write(NodeId node, double bytes);

  // --- slow-node semantics (driven by the fault injector) ---
  //
  // Rescales a node's NIC link capacities and disk bandwidth immediately
  // (active flows are re-solved at the new capacities) and records the CPU
  // factor for compute-charging layers (the MapReduce engine divides task
  // compute delays by it). The node stays up — it is degraded, not dead,
  // which is exactly the straggler case speculative execution exists for.
  void set_node_perf(NodeId node, NodePerf perf);
  const NodePerf& node_perf(NodeId node) const { return perf_[node]; }

  // Control round trip that can fail: if `dst` is down when the request
  // would arrive, the caller waits out the connection timeout and gets
  // false. Returns true after a normal one-way latency otherwise (the
  // caller models the response leg itself, as with control()).
  sim::Task<bool> try_control(NodeId src, NodeId dst);

  Disk& disk(NodeId node) { return *disks_[node]; }

  // Introspection for tests and benches.
  uint64_t flows_started() const { return flows_started_; }
  double bytes_moved() const { return bytes_moved_; }
  size_t active_flows() const { return flows_.size(); }
  // Bytes received per node (hotspot analysis).
  const std::vector<double>& rx_bytes() const { return rx_bytes_; }
  const std::vector<double>& tx_bytes() const { return tx_bytes_; }

  // --- solver introspection (tests / bench gates) ---
  bool legacy_solver() const { return legacy_; }
  SolverStats solver_stats() const;
  // Oracle cross-check: solves the CURRENT flow set with both the legacy
  // full per-flow filling and the path-class solver and returns the
  // largest relative rate difference (0 when no flows are active). Leaves
  // the active mode's rates in place, so calling it mid-run does not
  // perturb the simulation. Test/bench only — allocates.
  double solver_oracle_max_rel_diff();
  // Whether the link→class index lists exactly the active class slots on
  // each link (test only).
  bool link_index_consistent() const;
  // Drops the warm-start log, re-solves the current flow set cold and
  // returns whether every class rate and the rebuilt log equal the ones
  // in place (compared with ==). Call it right after a flush: the rates
  // in place then came from a warm start. Counts as one solve in the
  // stats; when it returns true nothing else has changed. Test only.
  bool cold_resolve_matches();

 private:
  struct GroundTruth final : LivenessView {
    explicit GroundTruth(const Network& net) : net(net) {}
    bool is_up(NodeId node) const override { return net.node_up(node); }
    const Network& net;
  };

  // All flows between one (src, dst) pair under one cap share this: one
  // link path, one max-min rate. `n` members are solved as one weighted
  // entity. Slots are recycled, so the solver's deterministic order is
  // creation order (active_classes_), not slot order.
  struct PathClass {
    uint32_t path[4] = {0, 0, 0, 0};
    uint32_t link_pos[4] = {0, 0, 0, 0};  // index in link_classes_[path[k]]
    uint32_t path_len = 0;
    uint32_t n = 0;        // member flow count (0 = dead slot)
    double cap = 0;        // per-flow cap (0 = none); part of the key
    double rate = 0;       // per-flow rate from the last solve
    NodeId src = 0, dst = 0;
    uint32_t level = 0;    // logged level that froze it (kNoLevel: none)
    bool changed = false;  // member count changed since the logged solve
  };

  struct Flow {
    uint32_t cls;       // index into classes_
    double remaining;   // bytes
    double rate = 0;    // current fair rate, bytes/sec
    sim::Event* done;
  };

  // Warm-start log of the last class solve: its levels in order, each with
  // its share and the end of its freezes in freeze_log_.
  struct LoggedLevel {
    double share;
    uint32_t end;
    bool operator==(const LoggedLevel&) const = default;
  };
  struct LoggedFreeze {
    uint32_t slot;
    double rate;
    bool operator==(const LoggedFreeze&) const = default;
  };

  // Link layout: [0, N): node up; [N, 2N): node down;
  // [2N, 2N+R): rack up; [2N+R, 2N+2R): rack down.
  uint32_t link_node_up(NodeId n) const { return n; }
  uint32_t link_node_down(NodeId n) const { return cfg_.num_nodes + n; }
  uint32_t link_rack_up(uint32_t r) const { return 2 * cfg_.num_nodes + r; }
  uint32_t link_rack_down(uint32_t r) const {
    return 2 * cfg_.num_nodes + cfg_.num_racks() + r;
  }

  void add_flow(NodeId src, NodeId dst, double bytes, double cap,
                sim::Event* done);
  uint32_t class_for(NodeId src, NodeId dst, double cap);
  void release_member(uint32_t cls);
  // Counts one member flow arriving on (or leaving) every link on the
  // class's path, keeping the per-link member counts and the live-link
  // list current.
  void count_member(const PathClass& c, bool arrival);
  // Marks slot ci and its links as changed since the logged solve (a no-op
  // without a log). Called before the member count moves.
  void note_change(uint32_t ci);
  void clear_changes();
  void drop_log();
  // Freezes slot ci at `rate` in the running solve: subtracts its members
  // from its links and takes it out of the unfrozen set.
  void freeze_class(uint32_t ci, double rate);
  // Replays the logged levels that the changes since the log leave intact
  // (see "Warm start" above) and truncates the log after them. Returns the
  // number of classes frozen.
  size_t replay_log();
  // Advances all flows to `now`, completing any that finished. Returns
  // whether any flow completed (and was removed).
  bool advance();
  // Recycles class slots whose membership dropped to zero.
  void compact_dead_classes();
  // Removes a slot from the link→class index of every link on its path.
  void unlink_class(uint32_t ci);
  // Rate re-solve, both backends. Legacy: per-flow progressive filling
  // (the pre-optimization oracle). Class: progressive filling over path
  // classes weighted by member count, rates written back to flows.
  void solve_flows_legacy();
  void solve_classes();
  // Adds one solve's work to SolverStats and the net/solver_* counters.
  void add_work(uint64_t levels, uint64_t link_visits, uint64_t class_visits,
                uint64_t replayed_levels, uint64_t replayed_freezes);
  // Incremental path: marks rates stale and defers solve+retime to the
  // simulator's instant-end flush (one solve per instant, however many
  // arrivals/departures it batched).
  void mark_rates_dirty();
  void flush_solver();
  static void flush_hook(void* self);
  // Immediate re-solve + retime (legacy path and set_node_perf).
  void after_change();
  // Schedules the wake-up for the next flow completion. Damped in the
  // incremental mode: a pending timer at the same deadline is left alone.
  void retime();
  void on_timer(uint64_t generation);

  sim::Simulator& sim_;
  ClusterConfig cfg_;
  bool legacy_ = false;
  std::vector<double> link_capacity_;
  // Active flows in arrival order (deterministic; completions compact it
  // in place).
  std::vector<Flow> flows_;
  // Path classes: slot storage + free list; active slots listed in
  // creation order (dead slots are compacted out during the next solve);
  // ordered key index for arrival lookup.
  std::vector<PathClass> classes_;
  std::vector<uint32_t> free_classes_;
  std::vector<uint32_t> active_classes_;
  std::map<std::tuple<NodeId, NodeId, double>, uint32_t> class_index_;
  // Link→class index: the active class slots crossing each link, in no
  // particular order. Kept current by class_for() and unlink_class(), so
  // a bottleneck round reads its candidates without a class sweep.
  std::vector<std::vector<uint32_t>> link_classes_;
  // Per link: member flows of the active classes crossing it. Links that
  // gained members since the last solve are appended to live_links_, which
  // the next seeding compacts (link_listed_ guards against duplicates).
  std::vector<uint32_t> link_members_;
  std::vector<uint32_t> live_links_;
  std::vector<char> link_listed_;
  // Warm start: the last solve's log, valid until dropped, and what
  // changed since: marked slots, and the links they cross with each one's
  // member count at the logged solve.
  std::vector<LoggedLevel> level_log_;
  std::vector<LoggedFreeze> freeze_log_;
  bool log_valid_ = false;
  std::vector<uint32_t> changed_slots_;
  std::vector<uint32_t> changed_links_;
  std::vector<uint32_t> logged_members_;
  std::vector<char> link_changed_;
  // Scratch for the solvers (sized to the link count, reused).
  std::vector<double> scratch_remaining_;
  std::vector<uint32_t> scratch_count_;
  std::vector<uint32_t> scratch_links_;  // links touched by active flows
  std::vector<uint32_t> scratch_near_;   // links near a level's minimum share
  std::vector<uint32_t> scratch_capped_;  // unfrozen capped classes, in order
  std::vector<uint64_t> scratch_cands_;   // candidate bitmap over ranks
  std::vector<uint32_t> scratch_rank_;    // per slot: rank, or kFrozen
  // Per link: the current level's stamp while the link is near the minimum
  // share and its classes are not yet marked.
  std::vector<uint64_t> scratch_watch_;
  uint64_t level_stamp_ = 0;
  std::vector<std::unique_ptr<Disk>> disks_;
  double last_advance_ = 0;
  uint64_t timer_generation_ = 0;
  bool timer_pending_ = false;
  double timer_deadline_ = 0;
  bool rates_dirty_ = false;
  uint64_t flows_started_ = 0;
  double bytes_moved_ = 0;
  SolverStats sstats_;
  std::vector<double> rx_bytes_;
  std::vector<double> tx_bytes_;
  std::vector<char> up_;  // ground-truth power state per node
  std::vector<uint64_t> incarnation_;  // power-loss count per node
  std::vector<NodePerf> perf_;  // degradation factors per node
  GroundTruth truth_{*this};

  // Obs handles, resolved once at construction (hot paths never do string
  // lookups). Per-rack byte counters keep link accounting bounded: racks,
  // not the O(nodes) NIC links, are the contended resource in the topology.
  obs::Tracer* tracer_;
  obs::Counter* m_flows_;
  obs::Counter* m_bytes_;
  obs::Counter* m_rpcs_;
  obs::Counter* m_rpc_timeouts_;
  obs::Counter* m_solves_;
  obs::Counter* m_levels_;
  obs::Counter* m_link_visits_;
  obs::Counter* m_class_visits_;
  obs::Counter* m_replayed_levels_;
  obs::Counter* m_replayed_freezes_;
  obs::Counter* m_flow_advances_;
  obs::Histogram* m_transfer_s_;
  std::vector<obs::Counter*> m_rack_up_bytes_;
  std::vector<obs::Counter*> m_rack_down_bytes_;
};

}  // namespace bs::net
