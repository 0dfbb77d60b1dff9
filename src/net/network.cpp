#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/assert.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bs::net {
namespace {

// A flow is "finished" when less than half a byte remains; fluid-model
// arithmetic accumulates tiny float error that this absorbs.
constexpr double kRemainingEps = 0.5;

// scratch_rank_ entry of a class the running solve has already frozen.
constexpr uint32_t kFrozen = ~uint32_t{0};

// PathClass::level of a class no logged level froze.
constexpr uint32_t kNoLevel = ~uint32_t{0};

// Relative distance above a level's minimum share within which a link is
// "near" it: the scan watches such links, and a warm start stops at a
// level with a changed link this close. The bottleneck test's 1e-12 slack
// cannot pass a link further away (see solve_classes()).
constexpr double kNearBand = 1e-9;

std::string xfer_args(NodeId src, NodeId dst, double bytes) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"src\":%u,\"dst\":%u,\"bytes\":%.0f", src,
                dst, bytes);
  return buf;
}

}  // namespace

sim::Task<void> Disk::io(double bytes, bool is_read) {
  const double t0 = sim_.now();
  co_await gate_.acquire();
  // The rate is sampled when the request reaches the head of the queue, so
  // a slow-node injection mid-queue affects every request issued after it.
  const double bps = (is_read ? read_bps_ : write_bps_) * scale_;
  co_await sim_.delay(seek_s_ + bytes / bps);
  gate_.release();
  if (is_read) {
    bytes_read_ += bytes;
    if (m_read_bytes_) m_read_bytes_->inc(bytes);
  } else {
    bytes_written_ += bytes;
    if (m_write_bytes_) m_write_bytes_->inc(bytes);
  }
  if (tracer_ && tracer_->enabled()) {
    char args[48];
    std::snprintf(args, sizeof(args), "\"bytes\":%.0f", bytes);
    tracer_->complete("net", "disk", node_, is_read ? "read" : "write", t0,
                      args);
  }
}

Network::Network(sim::Simulator& sim, const ClusterConfig& cfg)
    : sim_(sim), cfg_(cfg) {
  const char* env = std::getenv("BS_LEGACY_SOLVER");
  legacy_ = cfg_.legacy_solver || (env != nullptr && env[0] == '1');
  const uint32_t n = cfg_.num_nodes;
  const uint32_t r = cfg_.num_racks();
  const size_t links = 2 * n + 2 * r;
  link_capacity_.assign(links, 0);
  link_classes_.resize(links);
  link_members_.assign(links, 0);
  link_listed_.assign(links, 0);
  logged_members_.assign(links, 0);
  link_changed_.assign(links, 0);
  scratch_remaining_.assign(links, 0);
  scratch_count_.assign(links, 0);
  scratch_watch_.assign(links, 0);
  for (uint32_t i = 0; i < n; ++i) {
    link_capacity_[link_node_up(i)] = cfg_.nic_bps;
    link_capacity_[link_node_down(i)] = cfg_.nic_bps;
  }
  for (uint32_t i = 0; i < r; ++i) {
    link_capacity_[link_rack_up(i)] = cfg_.rack_uplink_bps;
    link_capacity_[link_rack_down(i)] = cfg_.rack_uplink_bps;
  }
  disks_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    disks_.push_back(std::make_unique<Disk>(sim_, cfg_.disk_read_bps,
                                            cfg_.disk_write_bps,
                                            cfg_.disk_seek_s));
  }
  rx_bytes_.assign(n, 0);
  tx_bytes_.assign(n, 0);
  up_.assign(n, 1);
  incarnation_.assign(n, 0);
  perf_.assign(n, NodePerf{});

  // The incremental path defers solve+retime to the end of the simulated
  // instant; the hook is registered unconditionally (the legacy path simply
  // never requests a flush).
  sim_.add_flush_hook(&Network::flush_hook, this);

  obs::MetricsRegistry& m = sim_.metrics();
  tracer_ = &sim_.tracer();
  m_flows_ = &m.counter("net/flows");
  m_bytes_ = &m.counter("net/bytes");
  m_rpcs_ = &m.counter("net/rpcs");
  m_rpc_timeouts_ = &m.counter("net/rpc_timeouts");
  m_solves_ = &m.counter("net/solver_solves");
  m_levels_ = &m.counter("net/solver_levels");
  m_link_visits_ = &m.counter("net/solver_link_visits");
  m_class_visits_ = &m.counter("net/solver_class_visits");
  m_replayed_levels_ = &m.counter("net/solver_replayed_levels");
  m_replayed_freezes_ = &m.counter("net/solver_replayed_freezes");
  m_flow_advances_ = &m.counter("net/flow_advances");
  m_transfer_s_ = &m.histogram("net/transfer_s");
  obs::Counter* disk_rd = &m.counter("net/disk_read_bytes");
  obs::Counter* disk_wr = &m.counter("net/disk_write_bytes");
  for (uint32_t i = 0; i < n; ++i) {
    disks_[i]->attach_obs(tracer_, i, disk_rd, disk_wr);
  }
  m_rack_up_bytes_.reserve(r);
  m_rack_down_bytes_.reserve(r);
  for (uint32_t i = 0; i < r; ++i) {
    const obs::Labels labels = {{"rack", std::to_string(i)}};
    m_rack_up_bytes_.push_back(&m.counter("net/rack_uplink_bytes", labels));
    m_rack_down_bytes_.push_back(&m.counter("net/rack_downlink_bytes", labels));
  }
}

void Network::set_node_up(NodeId node, bool up) {
  BS_CHECK(node < cfg_.num_nodes);
  if (up_[node] && !up) ++incarnation_[node];  // power loss
  up_[node] = up ? 1 : 0;
}

void Network::set_node_perf(NodeId node, NodePerf perf) {
  BS_CHECK(node < cfg_.num_nodes);
  BS_CHECK(perf.nic > 0 && perf.disk > 0 && perf.cpu > 0);
  perf_[node] = perf;
  // Bill active flows for the time elapsed at the old capacities, then
  // re-solve the fair shares at the new ones.
  advance();
  link_capacity_[link_node_up(node)] = cfg_.nic_bps * perf.nic;
  link_capacity_[link_node_down(node)] = cfg_.nic_bps * perf.nic;
  disks_[node]->set_scale(perf.disk);
  drop_log();  // the logged shares were computed at the old capacities
  after_change();
}

sim::Task<void> Network::transfer(NodeId src, NodeId dst, double bytes,
                                  double rate_cap) {
  BS_CHECK(src < cfg_.num_nodes && dst < cfg_.num_nodes);
  if (bytes <= 0) co_return;
  bytes_moved_ += bytes;
  tx_bytes_[src] += bytes;
  rx_bytes_[dst] += bytes;
  m_bytes_->inc(bytes);
  const double t0 = sim_.now();
  if (src == dst) {
    co_await sim_.delay(bytes / cfg_.loopback_bps);
  } else {
    m_flows_->inc();
    if (!cfg_.same_rack(src, dst)) {
      m_rack_up_bytes_[cfg_.rack_of(src)]->inc(bytes);
      m_rack_down_bytes_[cfg_.rack_of(dst)]->inc(bytes);
    }
    sim::Event done(sim_);
    add_flow(src, dst, bytes, rate_cap, &done);
    co_await done.wait();
  }
  m_transfer_s_->observe(sim_.now() - t0);
  if (tracer_->enabled()) {
    tracer_->complete("net", "net", dst, "xfer", t0, xfer_args(src, dst, bytes));
  }
}

sim::Task<void> Network::control(NodeId src, NodeId dst) {
  (void)src;
  (void)dst;
  m_rpcs_->inc();
  co_await sim_.delay(cfg_.control_latency_s);
}

sim::Task<bool> Network::try_transfer(NodeId src, NodeId dst, double bytes,
                                      double rate_cap) {
  BS_CHECK(src < cfg_.num_nodes && dst < cfg_.num_nodes);
  if (!up_[src] || !up_[dst]) {
    // Connecting to (or from) a dead node: the caller learns by timeout,
    // exactly like try_control.
    m_rpc_timeouts_->inc();
    if (tracer_->enabled()) {
      tracer_->instant("net", "net", src, "xfer_timeout",
                       xfer_args(src, dst, bytes));
    }
    co_await sim_.delay(cfg_.rpc_timeout_s);
    co_return false;
  }
  // Comparing incarnations (not just up_) catches an endpoint that lost
  // power AND rebooted while the stream was in flight.
  const uint64_t src_inc = incarnation_[src];
  const uint64_t dst_inc = incarnation_[dst];
  co_await transfer(src, dst, bytes, rate_cap);
  // An endpoint that lost power mid-stream discarded the bytes (or stopped
  // producing them); the fluid flow completed but the transfer did not.
  co_return up_[src] && up_[dst] && incarnation_[src] == src_inc &&
      incarnation_[dst] == dst_inc;
}

sim::Task<bool> Network::try_disk_read(NodeId node, double bytes) {
  BS_CHECK(node < cfg_.num_nodes);
  if (!up_[node]) co_return false;
  const uint64_t inc = incarnation_[node];
  co_await disk(node).read(bytes);
  co_return up_[node] && incarnation_[node] == inc;
}

sim::Task<bool> Network::try_disk_write(NodeId node, double bytes) {
  BS_CHECK(node < cfg_.num_nodes);
  if (!up_[node]) co_return false;
  const uint64_t inc = incarnation_[node];
  co_await disk(node).write(bytes);
  co_return up_[node] && incarnation_[node] == inc;
}

sim::Task<bool> Network::try_control(NodeId src, NodeId dst) {
  BS_CHECK(src < cfg_.num_nodes && dst < cfg_.num_nodes);
  m_rpcs_->inc();
  if (!up_[dst]) {
    // The request vanishes; the caller learns by connection timeout.
    m_rpc_timeouts_->inc();
    if (tracer_->enabled()) {
      char args[32];
      std::snprintf(args, sizeof(args), "\"dst\":%u", dst);
      tracer_->instant("net", "net", src, "rpc_timeout", args);
    }
    co_await sim_.delay(cfg_.rpc_timeout_s);
    co_return false;
  }
  co_await sim_.delay(cfg_.control_latency_s);
  co_return true;
}

uint32_t Network::class_for(NodeId src, NodeId dst, double cap) {
  const auto key = std::make_tuple(src, dst, cap);
  auto it = class_index_.find(key);
  if (it != class_index_.end()) {
    PathClass& c = classes_[it->second];
    note_change(it->second);
    ++c.n;
    count_member(c, /*arrival=*/true);
    return it->second;
  }
  uint32_t ci;
  if (!free_classes_.empty()) {
    ci = free_classes_.back();
    free_classes_.pop_back();
  } else {
    ci = static_cast<uint32_t>(classes_.size());
    classes_.emplace_back();
  }
  PathClass& c = classes_[ci];
  c.src = src;
  c.dst = dst;
  c.cap = cap;
  c.n = 1;
  c.rate = 0;
  c.path_len = 0;
  c.path[c.path_len++] = link_node_up(src);
  if (!cfg_.same_rack(src, dst)) {
    c.path[c.path_len++] = link_rack_up(cfg_.rack_of(src));
    c.path[c.path_len++] = link_rack_down(cfg_.rack_of(dst));
  }
  c.path[c.path_len++] = link_node_down(dst);
  for (uint32_t k = 0; k < c.path_len; ++k) {
    std::vector<uint32_t>& on_link = link_classes_[c.path[k]];
    c.link_pos[k] = static_cast<uint32_t>(on_link.size());
    on_link.push_back(ci);
  }
  c.level = kNoLevel;
  note_change(ci);
  count_member(c, /*arrival=*/true);
  // Appending keeps the active list in creation order (the solver's
  // deterministic order).
  active_classes_.push_back(ci);
  class_index_.emplace(key, ci);
  ++sstats_.path_classes_created;
  return ci;
}

void Network::release_member(uint32_t cls) {
  PathClass& c = classes_[cls];
  BS_DCHECK(c.n > 0);
  note_change(cls);
  count_member(c, /*arrival=*/false);
  if (--c.n == 0) {
    class_index_.erase(std::make_tuple(c.src, c.dst, c.cap));
    // The dead slot stays in active_classes_ until the next solve's
    // compaction sweep recycles it.
  }
}

void Network::count_member(const PathClass& c, bool arrival) {
  for (uint32_t k = 0; k < c.path_len; ++k) {
    const uint32_t l = c.path[k];
    if (!arrival) {
      --link_members_[l];
      continue;
    }
    ++link_members_[l];
    if (!link_listed_[l]) {
      link_listed_[l] = 1;
      live_links_.push_back(l);
    }
  }
}

void Network::note_change(uint32_t ci) {
  PathClass& c = classes_[ci];
  if (!log_valid_ || c.changed) return;
  c.changed = true;
  changed_slots_.push_back(ci);
  for (uint32_t k = 0; k < c.path_len; ++k) {
    const uint32_t l = c.path[k];
    if (link_changed_[l]) continue;
    link_changed_[l] = 1;
    logged_members_[l] = link_members_[l];
    changed_links_.push_back(l);
  }
}

void Network::clear_changes() {
  for (uint32_t ci : changed_slots_) classes_[ci].changed = false;
  for (uint32_t l : changed_links_) link_changed_[l] = 0;
  changed_slots_.clear();
  changed_links_.clear();
}

void Network::drop_log() {
  log_valid_ = false;
  level_log_.clear();
  freeze_log_.clear();
  clear_changes();
}

void Network::add_flow(NodeId src, NodeId dst, double bytes, double cap,
                       sim::Event* done) {
  advance();
  double eff_cap = cap;
  if (cfg_.per_stream_cap_bps > 0) {
    eff_cap = eff_cap > 0 ? std::min(eff_cap, cfg_.per_stream_cap_bps)
                          : cfg_.per_stream_cap_bps;
  }
  Flow f;
  f.cls = class_for(src, dst, eff_cap);
  f.remaining = bytes;
  f.done = done;
  flows_.push_back(f);
  ++flows_started_;
  after_change();
}

bool Network::advance() {
  const double now = sim_.now();
  const double dt = now - last_advance_;
  last_advance_ = now;
  if (flows_.empty()) return false;
  // Zero elapsed time moves no bytes: skip the O(flows) sweep. (The legacy
  // backend keeps the historical full sweep so its event schedule is
  // exactly the pre-optimization one, sub-half-byte corner cases included.)
  if (dt <= 0 && !legacy_) return false;
  m_flow_advances_->inc(static_cast<double>(flows_.size()));
  bool any_finished = false;
  for (Flow& f : flows_) {
    f.remaining -= f.rate * dt;
    if (f.remaining <= kRemainingEps) any_finished = true;
  }
  if (!any_finished) return false;
  // Finished flows are signalled and released in arrival order; the rest
  // keep their order.
  size_t kept = 0;
  for (Flow& f : flows_) {
    if (f.remaining <= kRemainingEps) {
      f.done->set();
      release_member(f.cls);
      continue;
    }
    flows_[kept++] = f;
  }
  flows_.resize(kept);
  return true;
}

void Network::compact_dead_classes() {
  size_t w = 0;
  for (size_t r = 0; r < active_classes_.size(); ++r) {
    const uint32_t ci = active_classes_[r];
    if (classes_[ci].n == 0) {
      unlink_class(ci);
      free_classes_.push_back(ci);
      continue;
    }
    active_classes_[w++] = ci;
  }
  active_classes_.resize(w);
}

void Network::unlink_class(uint32_t ci) {
  const PathClass& c = classes_[ci];
  for (uint32_t k = 0; k < c.path_len; ++k) {
    // Swap-remove; the class moved into the hole learns its new position.
    const uint32_t l = c.path[k];
    std::vector<uint32_t>& on_link = link_classes_[l];
    const uint32_t pos = c.link_pos[k];
    const uint32_t moved = on_link.back();
    on_link[pos] = moved;
    on_link.pop_back();
    PathClass& m = classes_[moved];
    for (uint32_t j = 0; j < m.path_len; ++j) {
      if (m.path[j] == l) m.link_pos[j] = pos;
    }
  }
}

void Network::solve_flows_legacy() {
  ++sstats_.legacy_solves;
  m_solves_->inc();
  drop_log();  // the log only chains consecutive class solves
  compact_dead_classes();
  if (flows_.empty()) return;
  // Progressive filling over flat scratch arrays (no per-call allocation).
  // This is the pre-optimization per-flow solver, kept verbatim as oracle
  // and baseline; flows borrow their path and cap from their class (same
  // values the old per-flow fields held, so the arithmetic — and therefore
  // the solved rates — are bit-identical to the historical code).
  scratch_links_.clear();
  for (Flow& f : flows_) {
    f.rate = -1;  // -1 = unfrozen
    const PathClass& c = classes_[f.cls];
    for (uint32_t k = 0; k < c.path_len; ++k) {
      const uint32_t l = c.path[k];
      if (scratch_count_[l] == 0) {
        scratch_remaining_[l] = link_capacity_[l];
        scratch_links_.push_back(l);
      }
      scratch_count_[l] += 1;
    }
  }
  size_t unfrozen = flows_.size();
  uint64_t levels = 0;
  while (unfrozen > 0) {
    ++levels;
    // Bottleneck share across links, and the smallest unfrozen per-flow cap.
    double best_share = std::numeric_limits<double>::infinity();
    for (uint32_t l : scratch_links_) {
      const uint32_t cnt = scratch_count_[l];
      if (cnt == 0) continue;
      const double fair = scratch_remaining_[l] / cnt;
      if (fair < best_share) best_share = fair;
    }
    bool froze_capped = false;
    for (Flow& f : flows_) {
      if (f.rate >= 0) continue;
      const PathClass& c = classes_[f.cls];
      if (c.cap > 0 && c.cap <= best_share) {
        // Cap binds before the links do: freeze at the cap.
        f.rate = c.cap;
        for (uint32_t k = 0; k < c.path_len; ++k) {
          const uint32_t l = c.path[k];
          scratch_remaining_[l] -= f.rate;
          scratch_count_[l] -= 1;
        }
        --unfrozen;
        froze_capped = true;
      }
    }
    if (froze_capped) continue;
    // Freeze every unfrozen flow crossing a bottleneck link.
    const double share = best_share;
    const double limit = share * (1 + 1e-12);
    for (Flow& f : flows_) {
      if (f.rate >= 0) continue;
      const PathClass& c = classes_[f.cls];
      bool bottlenecked = false;
      for (uint32_t k = 0; k < c.path_len; ++k) {
        const uint32_t l = c.path[k];
        if (scratch_remaining_[l] <= limit * scratch_count_[l]) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        f.rate = share;
        for (uint32_t k = 0; k < c.path_len; ++k) {
          const uint32_t l = c.path[k];
          scratch_remaining_[l] -= f.rate;
          scratch_count_[l] -= 1;
        }
        --unfrozen;
      }
    }
  }
  // Reset counters for the next call (remaining_ is re-seeded lazily).
  for (uint32_t l : scratch_links_) scratch_count_[l] = 0;
  add_work(levels, 0, 0, 0, 0);
}

void Network::solve_classes() {
  ++sstats_.class_solves;
  m_solves_->inc();
  compact_dead_classes();
  if (flows_.empty()) {
    drop_log();
    return;
  }
  // Work counters, kept local so the loops never touch the registry.
  uint64_t levels = 0, link_visits = 0, class_visits = 0;
  // Seed link loads from the per-link member counts: scratch_count_ carries
  // member flows, not classes, so the fair-share arithmetic matches the
  // per-flow solver's semantics. Links left without members drop off the
  // live list.
  scratch_links_.clear();
  size_t listed = 0;
  for (uint32_t l : live_links_) {
    if (link_members_[l] == 0) {
      link_listed_[l] = 0;
      continue;
    }
    live_links_[listed++] = l;
    scratch_links_.push_back(l);
    scratch_count_[l] = link_members_[l];
    scratch_remaining_[l] = link_capacity_[l];
  }
  live_links_.resize(listed);
  // A class's rank is its position in creation order; scratch_rank_ holds
  // it per slot until the class freezes. Capped classes are listed (in rank
  // order) with their smallest cap, so a level only sweeps them when some
  // cap can bind.
  scratch_capped_.clear();
  if (scratch_rank_.size() < classes_.size()) {
    scratch_rank_.resize(classes_.size());
  }
  double min_cap = std::numeric_limits<double>::infinity();
  for (uint32_t rank = 0; rank < active_classes_.size(); ++rank) {
    const uint32_t ci = active_classes_[rank];
    scratch_rank_[ci] = rank;
    if (classes_[ci].cap > 0) {
      scratch_capped_.push_back(ci);
      min_cap = std::min(min_cap, classes_[ci].cap);
    }
  }
  class_visits += active_classes_.size();
  const uint64_t replayed_freezes = replay_log();
  const uint64_t replayed_levels = level_log_.size();
  size_t unfrozen = active_classes_.size() - replayed_freezes;
  // Freezes slot ci at `rate` and logs it in the level being solved.
  auto freeze = [this](uint32_t ci, double rate) {
    freeze_class(ci, rate);
    classes_[ci].level = static_cast<uint32_t>(level_log_.size());
    freeze_log_.push_back({ci, rate});
  };
  auto end_level = [this](double share) {
    level_log_.push_back({share, static_cast<uint32_t>(freeze_log_.size())});
  };
  // Bottleneck candidates of a level, as a bitmap over ranks: reading it
  // word by word yields them in rank order without a sort. All words are
  // zero between levels; [cand_lo, cand_hi] bounds the ones in use.
  const size_t cand_words = (active_classes_.size() + 63) / 64;
  if (scratch_cands_.size() < cand_words) scratch_cands_.resize(cand_words);
  size_t cand_lo = 0, cand_hi = 0;
  // Marks link l's unfrozen classes from rank `first` on as candidates
  // and stops watching the link for the rest of the level.
  auto collect = [&](uint32_t l, uint32_t first) {
    scratch_watch_[l] = 0;
    class_visits += link_classes_[l].size();
    for (uint32_t ci : link_classes_[l]) {
      const uint32_t rank = scratch_rank_[ci];
      if (rank == kFrozen || rank < first) continue;
      const size_t w = rank / 64;
      scratch_cands_[w] |= uint64_t{1} << (rank % 64);
      cand_lo = std::min(cand_lo, w);
      cand_hi = std::max(cand_hi, w);
    }
  };
  while (unfrozen > 0) {
    ++levels;
    ++level_stamp_;
    // Fair-share minimum over the live links; links whose every class is
    // frozen drop out of the list for the rest of the solve. Links within
    // kNearBand of the running minimum are kept aside and watched: the
    // bottleneck test's 1e-12 slack cannot pass any other link, so the
    // round reads only them.
    double best_share = std::numeric_limits<double>::infinity();
    link_visits += scratch_links_.size();
    scratch_near_.clear();
    size_t live = 0;
    for (uint32_t l : scratch_links_) {
      const uint32_t cnt = scratch_count_[l];
      if (cnt == 0) continue;
      scratch_links_[live++] = l;
      const double fair = scratch_remaining_[l] / cnt;
      if (fair < best_share) best_share = fair;
      if (fair - best_share <= std::abs(best_share) * kNearBand) {
        scratch_near_.push_back(l);
        scratch_watch_[l] = level_stamp_;
      }
    }
    scratch_links_.resize(live);
    if (min_cap <= best_share) {
      // Cap round: every unfrozen class whose cap binds before the links
      // do freezes at its cap, in rank order. The survivors give the next
      // minimum; classes frozen by earlier rounds drop out.
      bool froze_capped = false;
      min_cap = std::numeric_limits<double>::infinity();
      class_visits += scratch_capped_.size();
      size_t kept = 0;
      for (uint32_t ci : scratch_capped_) {
        if (scratch_rank_[ci] == kFrozen) continue;
        const PathClass& c = classes_[ci];
        if (c.cap <= best_share) {
          freeze(ci, c.cap);
          --unfrozen;
          froze_capped = true;
          continue;
        }
        scratch_capped_[kept++] = ci;
        min_cap = std::min(min_cap, c.cap);
      }
      scratch_capped_.resize(kept);
      if (froze_capped) {
        end_level(best_share);
        continue;
      }
    }
    // Bottleneck round. Only classes crossing a link at the bottleneck
    // share can freeze, so candidates come from those links' indexes and
    // are then tested in rank order against the live state, exactly as a
    // sweep over every class would. A freeze can push a watched link that
    // missed the test by round-off into it; that link's later classes are
    // then marked too. An unwatched link starts more than kNearBand above
    // the share, and each freeze moves its test by about 2^-53 relative,
    // so it would take millions of freezes on one link to cross. (Hence
    // the scan order of the links cannot change which classes freeze.)
    const double share = best_share;
    const double limit = share * (1 + 1e-12);
    auto bottleneck = [&](uint32_t l) {
      return scratch_remaining_[l] <= limit * scratch_count_[l];
    };
    cand_lo = cand_words;
    cand_hi = 0;
    link_visits += scratch_near_.size();
    for (uint32_t l : scratch_near_) {
      if (bottleneck(l)) collect(l, 0);
    }
    // A freeze only marks ranks above the current one, so they land later
    // in this word or in a later word, and the scan still meets them.
    for (size_t w = cand_lo; w <= cand_hi; ++w) {
      while (scratch_cands_[w] != 0) {
        const int bit = std::countr_zero(scratch_cands_[w]);
        scratch_cands_[w] &= scratch_cands_[w] - 1;  // pop the lowest rank
        const auto rank = static_cast<uint32_t>(w * 64 + bit);
        const uint32_t ci = active_classes_[rank];
        const PathClass& c = classes_[ci];
        bool bottlenecked = false;
        for (uint32_t k = 0; k < c.path_len; ++k) {
          if (bottleneck(c.path[k])) {
            bottlenecked = true;
            break;
          }
        }
        if (!bottlenecked) continue;
        freeze(ci, share);
        --unfrozen;
        for (uint32_t k = 0; k < c.path_len; ++k) {
          const uint32_t l = c.path[k];
          if (scratch_watch_[l] == level_stamp_ && scratch_count_[l] > 0 &&
              bottleneck(l)) {
            collect(l, rank + 1);
          }
        }
      }
    }
    end_level(share);
  }
  for (uint32_t l : scratch_links_) scratch_count_[l] = 0;
  for (Flow& f : flows_) f.rate = classes_[f.cls].rate;
  log_valid_ = true;
  add_work(levels, link_visits, class_visits, replayed_levels,
           replayed_freezes);
}

void Network::freeze_class(uint32_t ci, double rate) {
  PathClass& c = classes_[ci];
  scratch_rank_[ci] = kFrozen;
  c.rate = rate;
  const double used = rate * c.n;
  for (uint32_t k = 0; k < c.path_len; ++k) {
    const uint32_t l = c.path[k];
    scratch_remaining_[l] -= used;
    scratch_count_[l] -= c.n;
  }
}

size_t Network::replay_log() {
  if (!log_valid_) return 0;
  // Condition (c) as a bound: replay stops before the first level that
  // froze a changed slot. New slots froze in no logged level.
  size_t stop = level_log_.size();
  double changed_cap = std::numeric_limits<double>::infinity();
  for (uint32_t ci : changed_slots_) {
    const PathClass& c = classes_[ci];
    if (c.level != kNoLevel) stop = std::min<size_t>(stop, c.level);
    if (c.cap > 0) changed_cap = std::min(changed_cap, c.cap);
  }
  // A changed link with no members now had only changed classes, so no
  // replayed freeze touches it and its logged remaining is its capacity.
  for (uint32_t l : changed_links_) {
    if (link_members_[l] == 0) scratch_remaining_[l] = link_capacity_[l];
  }
  // Conditions (a) and (b) at a level's start. A changed link's remaining
  // capacity is the logged solve's at this level (only unchanged classes
  // froze before it), and its logged member count differs from today's by
  // the members gained since.
  auto intact = [&](double share) {
    if (changed_cap <= share) return false;
    const double band = share * kNearBand;
    for (uint32_t l : changed_links_) {
      const int64_t now = scratch_count_[l];
      const int64_t then = now + int64_t{logged_members_[l]} -
                           int64_t{link_members_[l]};
      for (const int64_t cnt : {now, then}) {
        if (cnt > 0 && scratch_remaining_[l] / cnt - share <= band) {
          return false;
        }
      }
    }
    return true;
  };
  size_t replayed = 0;
  uint32_t freezes = 0;
  while (replayed < stop && intact(level_log_[replayed].share)) {
    for (; freezes < level_log_[replayed].end; ++freezes) {
      freeze_class(freeze_log_[freezes].slot, freeze_log_[freezes].rate);
    }
    ++replayed;
  }
  level_log_.resize(replayed);
  freeze_log_.resize(freezes);
  clear_changes();
  return freezes;
}

void Network::add_work(uint64_t levels, uint64_t link_visits,
                       uint64_t class_visits, uint64_t replayed_levels,
                       uint64_t replayed_freezes) {
  sstats_.levels += levels;
  sstats_.link_visits += link_visits;
  sstats_.class_visits += class_visits;
  sstats_.replayed_levels += replayed_levels;
  sstats_.replayed_freezes += replayed_freezes;
  m_levels_->inc(static_cast<double>(levels));
  m_link_visits_->inc(static_cast<double>(link_visits));
  m_class_visits_->inc(static_cast<double>(class_visits));
  m_replayed_levels_->inc(static_cast<double>(replayed_levels));
  m_replayed_freezes_->inc(static_cast<double>(replayed_freezes));
}

void Network::mark_rates_dirty() {
  rates_dirty_ = true;
  sim_.request_flush();
}

void Network::flush_hook(void* self) {
  static_cast<Network*>(self)->flush_solver();
}

void Network::flush_solver() {
  if (!rates_dirty_) return;
  rates_dirty_ = false;
  solve_classes();
  retime();
}

void Network::after_change() {
  if (legacy_) {
    solve_flows_legacy();
    retime();
  } else {
    mark_rates_dirty();
  }
}

void Network::retime() {
  if (flows_.empty()) {
    ++timer_generation_;  // invalidate any pending wake-up
    timer_pending_ = false;
    return;
  }
  double next = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    if (f.rate > 0) next = std::min(next, f.remaining / f.rate);
  }
  BS_CHECK_MSG(next < std::numeric_limits<double>::infinity(),
               "active flows but no positive rates");
  const double deadline = sim_.now() + next;
  // Damping (incremental mode): a re-solve that leaves the earliest
  // completion where it was keeps the already-scheduled timer.
  if (!legacy_ && timer_pending_ && deadline == timer_deadline_) {
    ++sstats_.retimes_damped;
    return;
  }
  ++timer_generation_;
  timer_pending_ = true;
  timer_deadline_ = deadline;
  ++sstats_.retimes_scheduled;
  const uint64_t gen = timer_generation_;
  sim_.call_at(deadline, [this, gen] { on_timer(gen); });
}

void Network::on_timer(uint64_t generation) {
  if (generation != timer_generation_) return;  // superseded by a change
  timer_pending_ = false;
  const bool completed = advance();
  if (legacy_) {
    solve_flows_legacy();
    retime();
    return;
  }
  if (completed) {
    // Departures change the fair shares: batch with anything else this
    // instant and solve once at its end.
    mark_rates_dirty();
  } else if (rates_dirty_) {
    // An earlier event this instant already changed the flow set (it may
    // even have completed the flows this timer was armed for); the
    // instant-end flush will solve and reschedule — rates are stale here,
    // so computing a deadline from them would be wrong.
  } else {
    retime();
  }
}

SolverStats Network::solver_stats() const {
  SolverStats s = sstats_;
  size_t active = 0;
  for (uint32_t ci : active_classes_) {
    if (classes_[ci].n > 0) ++active;
  }
  s.active_path_classes = active;
  return s;
}

bool Network::link_index_consistent() const {
  // Every active class sits at its recorded position on each of its links,
  // and the lists hold nothing else (so no slot survives its class).
  size_t expected = 0;
  for (uint32_t ci : active_classes_) {
    const PathClass& c = classes_[ci];
    for (uint32_t k = 0; k < c.path_len; ++k) {
      const std::vector<uint32_t>& on_link = link_classes_[c.path[k]];
      if (c.link_pos[k] >= on_link.size() || on_link[c.link_pos[k]] != ci) {
        return false;
      }
    }
    expected += c.path_len;
  }
  size_t entries = 0;
  for (const std::vector<uint32_t>& on_link : link_classes_) {
    entries += on_link.size();
  }
  return entries == expected;
}

bool Network::cold_resolve_matches() {
  std::vector<double> rates;
  rates.reserve(active_classes_.size());
  for (uint32_t ci : active_classes_) rates.push_back(classes_[ci].rate);
  const std::vector<LoggedLevel> levels = level_log_;
  const std::vector<LoggedFreeze> freezes = freeze_log_;
  drop_log();
  solve_classes();
  if (active_classes_.size() != rates.size()) return false;
  for (size_t i = 0; i < active_classes_.size(); ++i) {
    if (classes_[active_classes_[i]].rate != rates[i]) return false;
  }
  return level_log_ == levels && freeze_log_ == freezes;
}

double Network::solver_oracle_max_rel_diff() {
  if (flows_.empty()) return 0;
  // Both solvers are pure functions of the current flow set and capacities,
  // so running them back to back and finishing with the active backend
  // leaves rates bit-identical to the pre-call state.
  std::vector<double> legacy_rates;
  legacy_rates.reserve(flows_.size());
  solve_flows_legacy();
  for (const Flow& f : flows_) legacy_rates.push_back(f.rate);
  solve_classes();
  double max_rel = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    const double a = legacy_rates[i];
    const double b = flows_[i].rate;
    const double denom = std::max(std::abs(a), 1.0);
    max_rel = std::max(max_rel, std::abs(a - b) / denom);
  }
  if (legacy_) solve_flows_legacy();  // restore the active backend's rates
  return max_rel;
}

}  // namespace bs::net
