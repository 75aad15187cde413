// perfbench.cpp -- measurement binary of the repository benchmark.
//
// Runs one named workload in this process and prints one JSON record per
// line on stdout; perfbench/run.py builds this binary, runs it, and turns the
// records into the benchmark's metrics. It reaches the program only
// through its public calls (mp::run_spmd, par::ParallelSimulation,
// par::build_dist_tree, par::compute_forces_{funcship,dataship},
// tree::build_tree, tree::compute_fields, sim::kick/drift,
// Communicator::stats, obs::memstat).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ops K] [--setups R] [--spans PATH]
//
// Records, in order:
//   config  the workload's generator and parameters
//   setup   one per set-up repetition: seconds from input generation to the
//           moment every rank is ready for its first timed op
//   ready   per-rank energies of the initial state
//   op      one per timed op, every field an array indexed by rank
//   end     force error against a direct sum, peak RSS
//
// One op is one timed step. Its wall time runs on rank 0 from the moment the
// ranks leave a collective barrier (which also aligns their virtual clocks)
// until every rank has finished the op. With --trace 1 every layer call of
// the op is bracketed by a span and followed by a host barrier, and the
// spans are written to --spans at exit; the barriers never touch the
// virtual clocks, so modeled results are those of the untraced run.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/distributions.hpp"
#include "mp/runtime.hpp"
#include "multipole/expansion.hpp"
#include "obs/memstat.hpp"
#include "parallel/dataship.hpp"
#include "parallel/formulations.hpp"
#include "sim/integrator.hpp"
#include "tree/bhtree.hpp"

namespace {

using namespace bh;
using Clock = std::chrono::steady_clock;
using geom::Vec;

const Clock::time_point kEpoch = Clock::now();
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind : std::uint8_t { kFsTraj, kDsK4, kSerial };

struct Workload {
  const char* name;
  Kind kind;
  const char* generator;
  std::size_t n;  ///< 0: whatever the catalogue instance yields
  int ranks;
  par::Scheme scheme;
  unsigned degree;
  tree::FieldKind field;
  double softening;
  double dt;  ///< 0: no time integration
  mp::MachineModel machine;
  geom::Box<3> domain;
};

constexpr double kAlpha = 0.67;
constexpr unsigned kLeaf = 8;
// The cluster grid of bench/common.hpp, and so of the Table 5 runs.
constexpr unsigned kClustersPerAxis = 16;

// The Plummer sample (scale radius 1) fills its tail out to ~122 scale
// radii, but a cube that holds all of it puts the whole core into the 8
// clusters that meet at the origin. This cube is fitted to the bulk instead:
// clusters are one scale radius wide, so the core spreads over ~90 of them
// and the decomposition has the irregular load to balance. The ~1.6% of
// particles outside it fall into the boundary clusters and cells (Morton
// keys clamp, as in bench/fig8_plummer), and the sampled force error covers
// what that costs in accuracy.
const geom::Box<3> kPlummerBox{{{-8.0, -8.0, -8.0}}, 16.0};
// The catalogue's 100^3 domain of the paper instances.
const geom::Box<3> kCatalogueBox{{{0.0, 0.0, 0.0}}, 100.0};

const Workload kWorkloads[] = {
    {"plummer-fs-traj", Kind::kFsTraj,
     "model::plummer<3>(100000, Rng(seed), a=1)", 100000, 4,
     par::Scheme::kSPDA, 0, tree::FieldKind::kBoth, 1e-3, 1e-3,
     mp::MachineModel::ncube2(), kPlummerBox},
    {"plummer-ds-k4", Kind::kDsK4,
     "model::make_instance('p_63192', 0.25, seed)", 0, 4,
     par::Scheme::kDPDA, 4, tree::FieldKind::kPotential, 0.0, 0.0,
     mp::MachineModel::cm5(), kCatalogueBox},
    {"plummer-serial", Kind::kSerial,
     "model::plummer<3>(100000, Rng(seed), a=1)", 100000, 1,
     par::Scheme::kSPDA, 0, tree::FieldKind::kBoth, 1e-3, 1e-3,
     mp::MachineModel::ncube2(), kPlummerBox},
};

model::ParticleSet<3> generate(const Workload& w, std::uint64_t seed) {
  if (w.kind == Kind::kDsK4) return model::make_instance("p_63192", 0.25, seed);
  model::Rng rng(seed);
  return model::plummer<3>(w.n, rng, 1.0);
}

par::StepOptions step_options(const Workload& w) {
  par::StepOptions so;
  so.scheme = w.scheme;
  so.clusters_per_axis = kClustersPerAxis;
  so.alpha = kAlpha;
  so.degree = w.degree;
  so.leaf_capacity = kLeaf;
  so.kind = w.field;
  so.softening = w.softening;
  return so;
}

// The options ParallelSimulation::step() hands to the distributed tree and
// the function-shipping engine, so a probe repeats exactly that work.
par::DistTreeOptions dtree_options(const Workload& w) {
  return {.leaf_capacity = kLeaf, .degree = w.degree};
}

par::ForceOptions funcship_options(const Workload& w) {
  par::ForceOptions fo;
  fo.alpha = kAlpha;
  fo.kind = w.field;
  fo.softening = w.softening;
  fo.record_load = true;
  fo.leaf_size = static_cast<int>(kLeaf);
  return fo;
}

// ---------------------------------------------------------------------------
// Rank synchronization and spans

/// A host barrier over the rank threads that never touches virtual time.
/// abort() releases every waiter with an exception, so one failing rank
/// cannot leave its peers blocked here.
class HostBarrier {
 public:
  explicit HostBarrier(int n) : n_(n) {}
  HostBarrier(const HostBarrier&) = delete;
  HostBarrier& operator=(const HostBarrier&) = delete;

  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) throw std::runtime_error("perfbench: a peer rank failed");
    const std::uint64_t gen = gen_;
    if (++waiting_ == n_) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [&] { return gen_ != gen || aborted_; });
    if (gen_ == gen) throw std::runtime_error("perfbench: a peer rank failed");
  }

  void abort() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
  int waiting_ = 0;
  std::uint64_t gen_ = 0;
  bool aborted_ = false;
};

/// One traced interval on one rank. `seq` numbers the calls of an op in
/// program order (identical on every rank); `parent` is the seq of the
/// enclosing span, -1 for the roots ("op" and "probe").
struct Span {
  const char* name;
  int op;
  int seq;
  int parent;
  double t0;
  double t1;
  std::uint64_t allocs;
};

/// What one rank measured over one op; emitted as per-rank arrays.
struct RankOp {
  double vt = 0.0;
  std::array<double, 5> phase{};
  std::uint64_t p2p_bytes = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t coll_bytes = 0;
  double recv_wait = 0.0;
  std::uint64_t allocs = 0;
  model::WorkCounter work;
  model::WorkCounter probe_work;
  std::uint64_t items_shipped = 0;
  std::uint64_t bins_sent = 0;
  std::uint64_t stalls = 0;
  std::uint64_t local_load = 0;
  par::DataShipResult<3> ds;
  double kinetic = 0.0;
  double potential = 0.0;
  bool finite = true;
};

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int ops = 0;  ///< > 0: run exactly this many ops instead of --seconds
  int setups = 7;
  std::string spans_path;
};

/// State shared by the rank threads of one run (one set-up repetition).
struct Run {
  Run(const Args& a, bool timed_run)
      : args(a), w(*a.w), timed(timed_run), bar(a.w->ranks),
        slot(static_cast<std::size_t>(a.w->ranks)),
        spans(static_cast<std::size_t>(a.w->ranks)) {}

  const Args& args;
  const Workload& w;
  const bool timed;  ///< false: set up, then return
  HostBarrier bar;
  std::vector<RankOp> slot;
  std::vector<std::vector<Span>> spans;
  std::atomic<bool> stop{false};
  double setup_end = 0.0;
  double first_op = 0.0;
  double op_t0 = 0.0;
  double op_wall = 0.0;
  // Final state for the correctness reference, indexed by particle id.
  std::vector<Vec<3>> pos;
  std::vector<double> mass;
  std::vector<double> pot;
};

// ---------------------------------------------------------------------------
// JSON output

void put_array(std::string& out, const char* key,
               const std::vector<double>& v) {
  out += ",\"";
  out += key;
  out += "\":[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
    out += buf;
  }
  out += ']';
}

template <typename F>
void put_field(std::string& out, const char* key,
               const std::vector<RankOp>& slot, F&& f) {
  std::vector<double> v;
  v.reserve(slot.size());
  for (const auto& s : slot) v.push_back(static_cast<double>(f(s)));
  put_array(out, key, v);
}

void emit_op(const Run& run, int op) {
  const auto& s = run.slot;
  char head[96];
  std::snprintf(head, sizeof head, "{\"type\":\"op\",\"op\":%d,\"wall_s\":%.9f",
                op, run.op_wall);
  std::string out = head;
  put_field(out, "vt", s, [](const RankOp& r) { return r.vt; });
  const char* phase_keys[] = {"vt_local_build", "vt_tree_merge",
                              "vt_broadcast", "vt_force", "vt_load_balance"};
  for (std::size_t p = 0; p < 5; ++p)
    put_field(out, phase_keys[p], s,
              [p](const RankOp& r) { return r.phase[p]; });
  put_field(out, "p2p_bytes", s, [](const RankOp& r) { return r.p2p_bytes; });
  put_field(out, "p2p_messages", s,
            [](const RankOp& r) { return r.p2p_messages; });
  put_field(out, "coll_bytes", s, [](const RankOp& r) { return r.coll_bytes; });
  put_field(out, "recv_wait_vs", s,
            [](const RankOp& r) { return r.recv_wait; });
  put_field(out, "allocs", s, [](const RankOp& r) { return r.allocs; });
  put_field(out, "mac_evals", s,
            [](const RankOp& r) { return r.work.mac_evals; });
  put_field(out, "interactions", s,
            [](const RankOp& r) { return r.work.interactions; });
  put_field(out, "direct_pairs", s,
            [](const RankOp& r) { return r.work.direct_pairs; });
  put_field(out, "flops", s, [](const RankOp& r) { return r.work.flops(); });
  put_field(out, "probe_flops", s,
            [](const RankOp& r) { return r.probe_work.flops(); });
  put_field(out, "items_shipped", s,
            [](const RankOp& r) { return r.items_shipped; });
  put_field(out, "bins_sent", s, [](const RankOp& r) { return r.bins_sent; });
  put_field(out, "stalls", s, [](const RankOp& r) { return r.stalls; });
  put_field(out, "local_load", s, [](const RankOp& r) { return r.local_load; });
  put_field(out, "fetch_requests", s,
            [](const RankOp& r) { return r.ds.fetch_requests; });
  put_field(out, "nodes_fetched", s,
            [](const RankOp& r) { return r.ds.nodes_fetched; });
  put_field(out, "coalesced", s,
            [](const RankOp& r) { return r.ds.coalesced; });
  put_field(out, "suspends", s, [](const RankOp& r) { return r.ds.suspends; });
  put_field(out, "cache_hits", s,
            [](const RankOp& r) { return r.ds.cache_hits; });
  put_field(out, "hash_probes", s,
            [](const RankOp& r) { return r.ds.hash_probes; });
  put_field(out, "kinetic", s, [](const RankOp& r) { return r.kinetic; });
  put_field(out, "potential", s, [](const RankOp& r) { return r.potential; });
  put_field(out, "finite", s, [](const RankOp& r) { return r.finite ? 1 : 0; });
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The per-rank op machinery

/// One rank's handle on a run: brackets ops and layer calls, snapshots the
/// communicator's statistics, and records spans when tracing.
class Rank {
 public:
  Rank(Run& run, int rank, mp::Communicator* comm)
      : run_(run), rank_(rank), comm_(comm),
        spans_(run.spans[static_cast<std::size_t>(rank)]) {
    if (run.args.trace) spans_.reserve(1 << 16);
  }

  int rank() const { return rank_; }
  const Workload& w() const { return run_.w; }
  bool timed() const { return run_.timed; }
  RankOp& slot() { return run_.slot[static_cast<std::size_t>(rank_)]; }
  Run& run() { return run_; }

  /// Every rank is ready for its first timed op.
  void setup_done() {
    sync();
    if (rank_ == 0) run_.setup_end = now_s();
  }

  /// One layer call. Traced, inside the timed ops: a span around it, then a
  /// host barrier whose wait is recorded as an "mp.barrier" span.
  template <typename F>
  void call(const char* layer, F&& f) {
    if (!run_.args.trace || op_ < 0) {
      f();
      return;
    }
    const int seq = next_seq_++;
    const std::uint64_t a0 = obs::memstat::thread_allocs();
    const double t0 = now_s();
    f();
    const double t1 = now_s();
    spans_.push_back({layer, op_, seq, parent_, t0, t1,
                      obs::memstat::thread_allocs() - a0});
    if (run_.w.ranks > 1) {
      const int bseq = next_seq_++;
      run_.bar.wait();
      spans_.push_back({"mp.barrier", op_, bseq, parent_, t1, now_s(), 0});
    }
  }

  /// Open a root span ("probe") that later call()s nest under.
  void open_root(const char* name) {
    root_name_ = name;
    parent_ = next_seq_++;
    root_t0_ = now_s();
  }
  void close_root() {
    if (run_.args.trace)
      spans_.push_back({root_name_, op_, parent_, -1, root_t0_, now_s(), 0});
  }

  /// Run timed ops until the deadline (or --ops) is reached. `op` performs
  /// one op; `check` runs after it, outside the timed window, and fills the
  /// slot's correctness fields (and the traced probe).
  template <typename Op, typename Check>
  void op_loop(Op&& op, Check&& check) {
    for (int k = 0;; ++k) {
      if (comm_) comm_->barrier();  // align the ranks' virtual clocks
      if (run_.stop.load()) break;
      begin_op(k);
      op();
      end_op();
      check();
      sync();
      if (rank_ == 0) {
        emit_op(run_, k);
        const int done = k + 1;
        run_.stop.store(run_.args.ops > 0
                            ? done >= run_.args.ops
                            : now_s() - run_.first_op >= run_.args.seconds);
      }
    }
  }

  void sync() {
    if (run_.w.ranks > 1) run_.bar.wait();
  }

 private:
  void begin_op(int k) {
    op_ = k;
    next_seq_ = 1;
    parent_ = 0;
    slot() = RankOp{};
    if (comm_) {
      const auto& st = comm_->stats();
      vt0_ = comm_->vtime();
      bytes0_ = st.bytes_sent;
      msgs0_ = st.messages_sent;
      coll0_ = st.collective_bytes;
      recv0_ = st.recv_wait;
      phase0_ = phases();
    }
    allocs0_ = obs::memstat::thread_allocs();
    t0_ = now_s();
    if (rank_ == 0) {
      run_.op_t0 = t0_;
      if (k == 0) run_.first_op = t0_;
    }
  }

  void end_op() {
    auto& s = slot();
    s.allocs = obs::memstat::thread_allocs() - allocs0_;
    if (comm_) {
      const auto& st = comm_->stats();
      s.vt = comm_->vtime() - vt0_;
      s.p2p_bytes = st.bytes_sent - bytes0_;
      s.p2p_messages = st.messages_sent - msgs0_;
      s.coll_bytes = st.collective_bytes - coll0_;
      s.recv_wait = st.recv_wait - recv0_;
      const auto ph = phases();
      for (std::size_t p = 0; p < ph.size(); ++p) s.phase[p] = ph[p] - phase0_[p];
    }
    sync();
    const double t1 = now_s();
    if (rank_ == 0) run_.op_wall = t1 - run_.op_t0;
    if (run_.args.trace) spans_.push_back({"op", op_, 0, -1, t0_, t1, 0});
    parent_ = -1;
  }

  std::array<double, 5> phases() const {
    std::array<double, 5> out{};
    const auto& pv = comm_->stats().phase_vtime;
    for (std::size_t p = 0; p < out.size(); ++p) {
      const auto it = pv.find(mp::proto::kPhases[p]);
      out[p] = it == pv.end() ? 0.0 : it->second;
    }
    return out;
  }

  Run& run_;
  int rank_;
  mp::Communicator* comm_;
  std::vector<Span>& spans_;
  int op_ = -1;
  int next_seq_ = 0;
  int parent_ = -1;
  const char* root_name_ = "";
  double root_t0_ = 0.0;
  double t0_ = 0.0;
  double vt0_ = 0.0;
  std::uint64_t bytes0_ = 0, msgs0_ = 0, coll0_ = 0, allocs0_ = 0;
  double recv0_ = 0.0;
  std::array<double, 5> phase0_{};
};

/// Energies and the finiteness of the accumulated fields, into the slot.
void check_fields(RankOp& s, const model::ParticleSet<3>& ps,
                  tree::FieldKind kind, bool energies) {
  for (std::size_t i = 0; i < ps.size() && s.finite; ++i) {
    if (kind != tree::FieldKind::kForce && !std::isfinite(ps.potential[i]))
      s.finite = false;
    if (kind != tree::FieldKind::kPotential)
      for (std::size_t a = 0; a < 3; ++a)
        if (!std::isfinite(ps.acc[i][a])) s.finite = false;
  }
  if (energies) {
    const auto e = sim::measure_energies(ps);
    s.kinetic = e.kinetic;
    s.potential = e.potential;
  }
}

/// Copy a rank's final particles into the run's id-indexed reference arrays
/// (ids are disjoint across ranks, so the ranks write without locking).
void publish(Run& run, const model::ParticleSet<3>& ps) {
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto id = static_cast<std::size_t>(ps.id[i]);
    run.pos[id] = ps.pos[i];
    run.mass[id] = ps.mass[i];
    run.pot[id] = ps.potential[i];
  }
}

// ---------------------------------------------------------------------------
// Workload bodies

void emit_ready(const Run& run) {
  std::string out = "{\"type\":\"ready\"";
  put_field(out, "kinetic", run.slot, [](const RankOp& r) { return r.kinetic; });
  put_field(out, "potential", run.slot,
            [](const RankOp& r) { return r.potential; });
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

/// SPDA function shipping; one op is the Fig. 4 loop step.
void fs_traj(Rank& rk, mp::Communicator& c,
             const model::ParticleSet<3>& global) {
  const auto& w = rk.w();
  par::ParallelSimulation<3> sim(c, w.domain, step_options(w));
  sim.distribute(global);
  sim.step();
  sim.rebalance();
  sim.step();
  check_fields(rk.slot(), sim.particles(), w.field, true);
  rk.setup_done();
  if (!rk.timed()) return;
  if (rk.rank() == 0) emit_ready(rk.run());

  const double dt = w.dt;
  par::StepResult<3> res;
  rk.op_loop(
      [&] {
        rk.call("sim.integrate", [&] { sim::kick(sim.particles(), dt / 2); });
        rk.call("sim.integrate", [&] { sim::drift(sim.particles(), dt); });
        rk.call("formulations.migrate", [&] { sim.migrate(); });
        rk.call("formulations.rebalance", [&] { sim.rebalance(); });
        rk.call("formulations.step", [&] { res = sim.step(); });
        rk.call("sim.integrate", [&] { sim::kick(sim.particles(), dt / 2); });
      },
      [&] {
        auto& s = rk.slot();
        s.work = res.force.local_work;
        s.work += res.force.shipped_work;
        s.work.degree = w.degree;
        s.items_shipped = res.force.items_shipped;
        s.bins_sent = res.force.bins_sent;
        s.stalls = res.force.stalls;
        s.local_load = res.local_load;
        check_fields(s, sim.particles(), w.field, true);
        if (!rk.run().args.trace) return;
        // The distributed tree and the force engine run inside step(); time
        // them separately on the same rank state the op's step() used.
        rk.open_root("probe");
        par::DistTree<3> pdt;
        par::ForceResult<3> pres;
        rk.call("dtree.build", [&] {
          pdt = par::build_dist_tree<3>(c, sim.particles(), sim.owned_keys(),
                                        {}, w.domain, dtree_options(w));
        });
        rk.call("funcship.force", [&] {
          pres = par::compute_forces_funcship<3>(c, pdt, funcship_options(w));
        });
        rk.close_root();
        s.probe_work = pres.local_work;
        s.probe_work += pres.shipped_work;
        s.probe_work.degree = w.degree;
      });
  publish(rk.run(), sim.particles());
}

/// DPDA decomposition balanced by function-shipping steps; one op is
/// build_dist_tree + compute_forces_dataship over that static snapshot.
void ds_k4(Rank& rk, mp::Communicator& c,
           const model::ParticleSet<3>& global) {
  const auto& w = rk.w();
  par::ParallelSimulation<3> sim(c, w.domain, step_options(w));
  sim.distribute(global);
  sim.step();
  sim.rebalance();
  sim.step();  // rebuild on the balanced decomposition
  auto snap = sim.particles();
  snap.zero_accumulators();
  const auto keys = sim.owned_keys();

  par::ForceOptions fo;
  fo.alpha = kAlpha;
  fo.kind = w.field;
  fo.softening = w.softening;
  fo.done_counter = 1;  // distinct from the function-shipping steps' vote
  par::DistTree<3> dt;
  par::DataShipResult<3> res;
  const auto op = [&] {
    rk.call("dtree.build", [&] {
      dt = par::build_dist_tree<3>(c, snap, keys, {}, w.domain,
                                   dtree_options(w));
    });
    rk.call("dataship.force", [&] {
      c.phase_begin(par::kPhaseForce);
      res = par::compute_forces_dataship<3>(c, dt, fo);
      c.phase_end(par::kPhaseForce);
    });
  };
  op();  // warm the allocator and the caches the op touches
  rk.setup_done();
  if (!rk.timed()) return;
  if (rk.rank() == 0) emit_ready(rk.run());

  rk.op_loop(op, [&] {
    auto& s = rk.slot();
    s.work = res.work;
    s.work.degree = w.degree;
    s.ds = res;
    check_fields(s, dt.particles, w.field, false);
  });
  publish(rk.run(), dt.particles);
}

/// The same particles as fs_traj on one thread, without mp.
void serial(Rank& rk, const model::ParticleSet<3>& global) {
  const auto& w = rk.w();
  auto ps = global;
  const tree::BuildOptions bo{.leaf_capacity = kLeaf, .degree = w.degree};
  const tree::TraversalOptions to{.alpha = kAlpha,
                                  .softening = w.softening,
                                  .kind = w.field,
                                  .use_expansions = w.degree > 0};
  tree::BhTree<3> tr;
  model::WorkCounter work;
  const auto forces = [&] {
    rk.call("tree.build", [&] { tr = tree::build_tree(ps, w.domain, bo); });
    rk.call("tree.force", [&] {
      ps.zero_accumulators();
      work = tree::compute_fields(tr, ps, to);
    });
  };
  forces();
  check_fields(rk.slot(), ps, w.field, true);
  rk.setup_done();
  if (!rk.timed()) return;
  emit_ready(rk.run());

  const double dt = w.dt;
  rk.op_loop(
      [&] {
        rk.call("sim.integrate", [&] { sim::kick(ps, dt / 2); });
        rk.call("sim.integrate", [&] { sim::drift(ps, dt); });
        forces();
        rk.call("sim.integrate", [&] { sim::kick(ps, dt / 2); });
      },
      [&] {
        auto& s = rk.slot();
        s.work = work;
        s.work.degree = w.degree;
        check_fields(s, ps, w.field, true);
      });
  publish(rk.run(), ps);
}

/// One set-up repetition, followed by the timed ops when run.timed.
void run_once(Run& run, const model::ParticleSet<3>& global) {
  const auto& w = run.w;
  if (run.timed) {
    run.pos.assign(global.size(), {});
    run.mass.assign(global.size(), 0.0);
    run.pot.assign(global.size(), 0.0);
  }
  if (w.kind == Kind::kSerial) {
    Rank rk(run, 0, nullptr);
    serial(rk, global);
    return;
  }
  mp::run_spmd(w.ranks, w.machine, [&](mp::Communicator& c) {
    Rank rk(run, c.rank(), &c);
    try {
      if (w.kind == Kind::kFsTraj)
        fs_traj(rk, c, global);
      else
        ds_k4(rk, c, global);
    } catch (...) {
      run.bar.abort();
      throw;
    }
  });
}

// ---------------------------------------------------------------------------
// Correctness reference and output

/// Targets of the direct-sum reference: enough that the error estimate
/// varies by well under the benchmark's bound across seeds.
constexpr std::size_t kErrorSample = 2000;

/// Fractional potential error (the paper's accuracy metric, Section 5.2.2)
/// on a seeded sample of targets against a direct sum over every source.
double sampled_force_error(const Run& run, std::uint64_t seed) {
  const std::size_t n = run.pos.size();
  std::vector<std::size_t> targets(n);
  for (std::size_t i = 0; i < n; ++i) targets[i] = i;
  model::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::shuffle(targets.begin(), targets.end(), rng);
  targets.resize(std::min(kErrorSample, n));
  std::vector<double> approx, exact;
  approx.reserve(targets.size());
  exact.reserve(targets.size());
  for (const std::size_t t : targets) {
    double phi = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == t) continue;
      phi += multipole::point_kernel<3>(run.pos[t], run.pos[j], run.mass[j],
                                        run.w.softening)
                 .potential;
    }
    exact.push_back(phi);
    approx.push_back(run.pot[t]);
  }
  return tree::fractional_error(approx, exact);
}

void write_spans(const Run& run, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  std::fputs("name,rank,op,seq,parent,t0,t1,allocs\n", f);
  for (std::size_t r = 0; r < run.spans.size(); ++r)
    for (const auto& s : run.spans[r])
      std::fprintf(f, "%s,%zu,%d,%d,%d,%.9f,%.9f,%llu\n", s.name, r, s.op,
                   s.seq, s.parent, s.t0, s.t1,
                   static_cast<unsigned long long>(s.allocs));
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot write spans to " + path);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--ops K] [--setups R] [--spans PATH]\n"
               "workloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      for (const auto& w : kWorkloads)
        if (v == w.name) a.w = &w;
      if (!a.w) usage(("unknown workload " + v).c_str());
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--ops") {
      a.ops = std::stoi(v);
    } else if (k == "--setups") {
      a.setups = std::max(1, std::stoi(v));
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (!a.w) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload& w = *args.w;
  try {
    std::printf(
        "{\"type\":\"config\",\"workload\":\"%s\",\"generator\":\"%s\","
        "\"seed\":%llu,\"ranks\":%d,\"scheme\":\"%s\",\"alpha\":%g,"
        "\"degree\":%u,\"leaf\":%u,\"field\":\"%s\",\"softening\":%g,"
        "\"dt\":%g,\"machine\":\"%s\",\"t_flop\":%.17g,\"trace\":%d}\n",
        w.name, w.generator,
        static_cast<unsigned long long>(args.seed), w.ranks,
        w.kind == Kind::kSerial  ? "serial"
        : w.scheme == par::Scheme::kDPDA ? "DPDA"
                                         : "SPDA",
        kAlpha, w.degree, kLeaf,
        w.field == tree::FieldKind::kBoth ? "force+potential" : "potential",
        w.softening, w.dt, w.machine.name.c_str(), w.machine.t_flop,
        args.trace ? 1 : 0);

    std::unique_ptr<Run> last;
    for (int rep = 0; rep < args.setups; ++rep) {
      const bool timed = rep + 1 == args.setups;
      last.reset();
      last = std::make_unique<Run>(args, timed);
      const double t0 = now_s();
      const auto global = generate(w, args.seed);
      run_once(*last, global);
      std::printf("{\"type\":\"setup\",\"s\":%.9f,\"n\":%zu}\n",
                  last->setup_end - t0, global.size());
    }
    const double err = sampled_force_error(*last, args.seed);
    if (!args.spans_path.empty()) write_spans(*last, args.spans_path);
    std::printf(
        "{\"type\":\"end\",\"force_rel_err\":%.17g,\"sample\":%zu,"
        "\"peak_rss_bytes\":%llu}\n",
        err, std::min(kErrorSample, last->pos.size()),
        static_cast<unsigned long long>(obs::memstat::peak_rss_bytes()));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s: %s\n", w.name, e.what());
    return 1;
  }
  return 0;
}
