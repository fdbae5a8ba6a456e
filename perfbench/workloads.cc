#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "apps/bfs.h"
#include "apps/pagerank.h"
#include "bench/bench_common.h"
#include "bigraph/ooc_builder.h"
#include "bigraph/segmented_csr.h"
#include "exp/runner.h"
#include "exp/workloads.h"
#include "graph/sim_graph.h"
#include "os/page_table.h"
#include "profile/mmap_tracker.h"
#include "profile/perf_mem.h"
#include "runtime/sim_heap.h"
#include "serve/kv_store.h"
#include "serve/request_gen.h"

namespace perfbench {

namespace {

using namespace memtier;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/** Host seconds since construction. */
class Stopwatch
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/** Order-dependent digest of a vector's raw bits. */
template <typename T>
std::uint64_t
digestOf(const std::vector<T> &values, std::uint64_t h = 0)
{
    for (const T &v : values) {
        std::uint64_t bits = 0;
        static_assert(sizeof(T) <= sizeof(bits));
        std::memcpy(&bits, &v, sizeof(T));
        h = (h ^ bits) * 0x100000001b3ULL + kGolden;
    }
    return h;
}

/** The paper's machine sized for an input of 2^@p scale: AutoNUMA on,
 *  DRAM/NVM scaled as the repository's benches do, one host thread
 *  and one migration copy worker. */
SystemConfig
machineConfig(int scale)
{
    SystemConfig sys;
    sys.dram = makeDramParams(scaledCapacity(24 * kMiB, scale));
    sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, scale));
    sys.hostThreads = 1;
    sys.kernel.copyThreads = 1;
    return sys;
}

/** Cumulative counters read from the layers' public getters. */
struct Counters
{
    Cycles time = 0;
    std::uint64_t levels[kNumMemLevels] = {};
    std::uint64_t tlbLookups = 0;
    std::uint64_t tlbMisses = 0;
    VmStat vm;
    std::uint64_t hintFaults = 0;
    std::uint64_t copyBytes = 0;
    Cycles copyCycles = 0;
};

Counters
readCounters(Engine &eng)
{
    Counters c;
    c.time = eng.globalTime();
    for (int l = 0; l < kNumMemLevels; ++l)
        c.levels[l] = eng.levelCount(static_cast<MemLevel>(l));
    for (std::uint32_t i = 0; i < eng.threadCount(); ++i) {
        const Tlb &tlb = eng.thread(i).tlb;
        c.tlbLookups += tlb.l1Hits() + tlb.stlbHits() + tlb.misses() +
                        tlb.hugeL1Hits() + tlb.hugeStlbHits() +
                        tlb.hugeMisses();
        c.tlbMisses += tlb.misses() + tlb.hugeMisses();
    }
    c.vm = eng.kernel().vmstat();
    if (eng.autonuma())
        c.hintFaults = eng.autonuma()->stats().hintFaults;
    c.copyBytes = eng.kernel().copyEngine().bytesCopied();
    c.copyCycles = eng.kernel().copyEngine().chargedCycles();
    return c;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Record the timed phase [@p a, @p b]: simulated deltas plus the host
 *  end-to-end times. */
void
recordTimedPhase(const Counters &a, const Counters &b, double setup_s,
                 double timed_s, InstanceResult &r)
{
    double lv[kNumMemLevels];
    double acc = 0;
    for (int l = 0; l < kNumMemLevels; ++l) {
        lv[l] = static_cast<double>(b.levels[l] - a.levels[l]);
        acc += lv[l];
    }
    const auto d = [](std::uint64_t x, std::uint64_t y) {
        return static_cast<double>(y - x);
    };
    auto &s = r.sim;
    s["sim_s"] = cyclesToSeconds(b.time - a.time);
    s["sim.accesses"] = acc;
    s["cache.l1_hit_frac"] = ratio(lv[0], acc);
    s["cache.lfb_frac"] = ratio(lv[1], acc);
    s["cache.l2_hit_frac"] = ratio(lv[2], acc);
    s["cache.l3_hit_frac"] = ratio(lv[3], acc);
    s["autonuma.dram_frac"] = ratio(lv[4], lv[4] + lv[5]);
    s["tlb.miss_frac"] = ratio(d(a.tlbMisses, b.tlbMisses),
                               d(a.tlbLookups, b.tlbLookups));
    s["os.pgfault"] = d(a.vm.pgfault, b.vm.pgfault);
    s["os.pgdemote"] = d(a.vm.pgdemoteKswapd + a.vm.pgdemoteDirect,
                         b.vm.pgdemoteKswapd + b.vm.pgdemoteDirect);
    s["os.migrate_fail"] = d(a.vm.pgmigrateFail, b.vm.pgmigrateFail);
    s["os.page_cache_drops"] = d(a.vm.pageCacheDrops, b.vm.pageCacheDrops);
    s["autonuma.hint_faults"] = d(a.hintFaults, b.hintFaults);
    s["autonuma.promote_candidates"] =
        d(a.vm.promoteCandidates, b.vm.promoteCandidates);
    s["autonuma.promote_rate_limited"] =
        d(a.vm.promoteRateLimited, b.vm.promoteRateLimited);
    s["autonuma.pgpromote"] =
        d(a.vm.pgpromoteSuccess, b.vm.pgpromoteSuccess);
    s["mem.copy_mb"] = d(a.copyBytes, b.copyBytes) / double(kMiB);
    s["mem.copy_sim_ms"] = cyclesToSeconds(b.copyCycles - a.copyCycles) * 1e3;

    r.host["setup_s"] = setup_s;
    r.host["wall_s"] = setup_s + timed_s;
    r.host["accesses_per_s"] = ratio(acc, timed_s);
    r.host["sim.ns_per_access"] = ratio(timed_s * 1e9, acc);
}

/** Bounded observer keeping the first records of the access stream. */
class SliceCapture final : public AccessObserver
{
  public:
    explicit SliceCapture(std::uint64_t cap) : cap_(cap)
    {
        slice.reserve(cap);
    }
    void
    onAccess(const AccessRecord &rec) override
    {
        if (slice.size() < cap_)
            slice.push_back(AccessRequest{rec.vaddr, rec.op});
    }
    void
    onBatch(const AccessRecord *recs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n && slice.size() < cap_; ++i)
            slice.push_back(AccessRequest{recs[i].vaddr, recs[i].op});
    }
    std::vector<AccessRequest> slice;

  private:
    std::uint64_t cap_;
};

/** Forwarding observer that times every delivery to @p inner. */
class TimedObserver final : public AccessObserver
{
  public:
    explicit TimedObserver(AccessObserver &inner) : inner_(inner) {}
    void
    onAccess(const AccessRecord &rec) override
    {
        const Stopwatch sw;
        inner_.onAccess(rec);
        seconds += sw.seconds();
    }
    void
    onBatch(const AccessRecord *recs, std::size_t n) override
    {
        const Stopwatch sw;
        inner_.onBatch(recs, n);
        seconds += sw.seconds();
    }
    double seconds = 0.0;

  private:
    AccessObserver &inner_;
};

/** Keeps the replays' results observable. */
volatile std::uint64_t g_replaySink = 0;

/** Passes over the captured slice per replay (amortizes clock reads). */
constexpr int kReplayPasses = 4;

/** Replays per model; the fastest is kept. */
constexpr int kReplayRounds = 5;

/** Smallest of @p rounds calls of @p fn, each returning host seconds. */
template <typename Fn>
double
fastestOf(int rounds, Fn &&fn)
{
    double best = fn();
    for (int i = 1; i < rounds; ++i)
        best = std::min(best, fn());
    return best;
}

/**
 * Replay the captured slice through standalone cache, TLB and page
 * table models and record the host nanoseconds per replayed access.
 */
void
replayLayers(const std::vector<AccessRequest> &slice, const CacheParams &p,
             InstanceResult &r)
{
    if (slice.empty())
        return;
    const double n = static_cast<double>(slice.size()) * kReplayPasses;
    std::uint64_t sink = 0;
    r.replay["cache.replay_access_ns"] = fastestOf(kReplayRounds, [&] {
        SetAssocCache l1("replay.l1", p.l1Size, p.l1Ways);
        SetAssocCache l2("replay.l2", p.l2Size, p.l2Ways);
        SetAssocCache l3("replay.l3", p.l3Size, p.l3Ways);
        const Stopwatch sw;
        for (int pass = 0; pass < kReplayPasses; ++pass) {
            for (const AccessRequest &a : slice) {
                const Addr line = a.addr >> kLineShift;
                const bool write = a.op == MemOp::Store;
                if (l1.access(line, write))
                    continue;
                if (!l2.access(line, false)) {
                    if (!l3.access(line, false))
                        l3.insert(line, false);
                    l2.insert(line, false);
                }
                l1.insert(line, write);
            }
        }
        const double seconds = sw.seconds();
        sink += l1.hits() + l2.hits() + l3.hits();
        return seconds * 1e9 / n;
    });
    r.replay["tlb.replay_lookup_ns"] = fastestOf(kReplayRounds, [&] {
        Tlb tlb(p.tlb);
        const Stopwatch sw;
        for (int pass = 0; pass < kReplayPasses; ++pass) {
            for (const AccessRequest &a : slice)
                tlb.lookup(a.addr >> kPageShift);
        }
        const double seconds = sw.seconds();
        sink += tlb.misses();
        return seconds * 1e9 / n;
    });
    PageTable pt;
    for (const AccessRequest &a : slice) {
        if (pt.find(a.addr >> kPageShift) == nullptr)
            pt.insert(a.addr >> kPageShift);
    }
    r.replay["os.pagetable_replay_find_ns"] = fastestOf(kReplayRounds, [&] {
        const Stopwatch sw;
        for (int pass = 0; pass < kReplayPasses; ++pass) {
            for (const AccessRequest &a : slice)
                sink += pt.find(a.addr >> kPageShift) != nullptr;
        }
        return sw.seconds() * 1e9 / n;
    });
    // Publish the replay outcome so no pass can be optimized away.
    g_replaySink = sink;
}

/** Engine + heap of one instance; the heap goes first. */
struct Machine
{
    std::unique_ptr<Engine> eng;
    std::unique_ptr<SimHeap> heap;

    void
    build(const SystemConfig &sys)
    {
        eng = std::make_unique<Engine>(sys);
        heap = std::make_unique<SimHeap>(*eng);
    }
};

// ------------------------------------------------------------ pr_kron

InstanceResult
runPrKron(std::uint64_t seed, const Sizes &z, Tracer &tracer,
          Checker &checker, bool capture_slice)
{
    InstanceResult r;
    Machine m;
    MmapTracker tracker;
    PerfMemSampler sampler;
    TimedObserver timed_sampler(sampler);
    SliceCapture capture(capture_slice ? z.captureRecords : 0);
    std::shared_ptr<const CsrGraph> host;
    SimCsrGraph g;

    const Stopwatch setup;
    {
        const auto span = tracer.span("setup");
        {
            const auto s = tracer.span("sim.engine_init");
            m.build(machineConfig(z.prScale));
            m.eng->kernel().setSyscallObserver(&tracker);
            m.eng->setObserver(tracer.enabled()
                                   ? static_cast<AccessObserver *>(
                                         &timed_sampler)
                                   : &sampler);
        }
        {
            const auto s = tracer.span("graph.generate");
            clearDatasetCache();
            host = datasetGraph(GraphKind::Kron, z.prScale, 16, seed);
        }
        {
            const auto s = tracer.span("graph.load");
            g = SimCsrGraph::load(*m.eng, *m.heap, m.eng->thread(0), *host,
                                  "pr_kron");
        }
    }
    const double setup_s = setup.seconds();
    r.sim["graph.load_sim_s"] = cyclesToSeconds(m.eng->globalTime());
    const double load_sampler_s = timed_sampler.seconds;

    // The sampler (plain or timed) is the timed phase's one observer.
    r.timedObservers = 1;
    if (capture_slice) {
        m.eng->addObserver(&capture);
        ++r.timedObservers;
    }
    const Counters before = readCounters(*m.eng);
    const Stopwatch timed;
    PageRankOutput pr;
    {
        const auto span = tracer.span("timed");
        const auto s = tracer.span("apps.pagerank");
        pr = runPageRank(*m.eng, *m.heap, g, z.prIterations);
    }
    const double timed_s = timed.seconds();
    const Counters after = readCounters(*m.eng);
    r.peakRssMb = peakRssMb();
    recordTimedPhase(before, after, setup_s, timed_s, r);
    r.sim["profile.samples"] = static_cast<double>(sampler.samples().size());

    if (tracer.enabled()) {
        const double pr_sampler_s = timed_sampler.seconds - load_sampler_s;
        r.host["graph.generate_s"] = tracer.selfSeconds("graph.generate");
        r.host["graph.load_s"] =
            tracer.selfSeconds("graph.load") - load_sampler_s;
        r.host["apps.pagerank_s"] =
            tracer.selfSeconds("apps.pagerank") - pr_sampler_s;
        r.host["profile.sampler_s"] = timed_sampler.seconds;
    }
    if (capture_slice)
        replayLayers(capture.slice, m.eng->config().cache, r);

    // Check: the output must match the untimed host reference, and the
    // call must not have been aborted by a memory failure.
    r.attempted = 1;
    r.outputDigest = digestOf(pr.rank);
    bool ok = after.vm.hwpoisonSigbus == before.vm.hwpoisonSigbus;
    if (ok && !checker.verified.count(r.outputDigest)) {
        const std::vector<double> want =
            hostPageRank(*host, z.prIterations);
        ok = want.size() == pr.rank.size();
        for (std::size_t v = 0; ok && v < want.size(); ++v)
            ok = std::abs(pr.rank[v] - want[v]) <= 1e-12;
        if (ok)
            checker.verified.insert(r.outputDigest);
    }
    r.failed = ok ? 0 : 1;

    g.free(*m.heap, m.eng->thread(0));
    return r;
}

// ------------------------------------------------------- bfs_urand_ooc

/** Deterministic BFS sources with at least one edge each. */
std::vector<NodeId>
bfsSources(const SegmentedCsrView &g, int count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<NodeId> out;
    const auto n = static_cast<std::uint64_t>(g.numNodes());
    while (out.size() < static_cast<std::size_t>(count)) {
        const auto s = static_cast<NodeId>(rng.nextBounded(n));
        if (g.rawDegree(s) > 0)
            out.push_back(s);
    }
    return out;
}

/** Call @p fn(v) for each neighbor of @p u through untimed raw reads
 *  of the segmented graph (no host copy of the graph exists). */
template <typename Fn>
void
forRawNeighbors(const SegmentedCsrView &g, NodeId u, Fn &&fn)
{
    const CsrSegment &s = g.segment(g.segmentOfRow(u));
    const auto local = static_cast<std::uint64_t>(u - s.firstRow);
    const std::int64_t begin = s.index.raw(local);
    const std::int64_t end = s.index.raw(local + 1);
    for (std::int64_t e = begin; e < end; ++e)
        fn(s.adj.raw(static_cast<std::uint64_t>(e - s.edgeBase)));
}

InstanceResult
runBfsUrandOoc(std::uint64_t seed, const Sizes &z, Tracer &tracer,
               Checker &checker, bool capture_slice)
{
    InstanceResult r;
    Machine m;
    SliceCapture capture(capture_slice ? z.captureRecords : 0);
    SegmentedCsrGraph seg;

    const Stopwatch setup;
    {
        const auto span = tracer.span("setup");
        {
            const auto s = tracer.span("sim.engine_init");
            m.build(machineConfig(z.bfsScale));
        }
        {
            const auto s = tracer.span("bigraph.build");
            BigraphSpec spec;
            spec.kind = BigraphKind::Urand;
            spec.scale = z.bfsScale;
            spec.degree = 16;
            spec.seed = seed;
            spec.segments = z.bfsSegments;
            clearBigraphArtifacts();
            seg = SegmentedCsrGraph::generate(*m.eng, *m.heap,
                                              m.eng->thread(0), spec,
                                              "bfs_urand_ooc");
        }
    }
    const double setup_s = setup.seconds();
    r.sim["bigraph.load_sim_s"] = cyclesToSeconds(m.eng->globalTime());
    const SegmentedCsrView g(seg);
    const std::vector<NodeId> sources = bfsSources(g, z.bfsSources, seed);

    if (capture_slice) {
        m.eng->addObserver(&capture);
        ++r.timedObservers;
    }
    std::vector<BfsOutput> outs;
    std::vector<bool> aborted;
    outs.reserve(sources.size());
    const Counters before = readCounters(*m.eng);
    const Stopwatch timed;
    {
        const auto span = tracer.span("timed");
        for (const NodeId s : sources) {
            const std::uint64_t sigbus =
                m.eng->kernel().vmstat().hwpoisonSigbus;
            const auto call = tracer.span("apps.bfs");
            outs.push_back(runBfs(*m.eng, *m.heap, g, s));
            aborted.push_back(m.eng->kernel().vmstat().hwpoisonSigbus !=
                              sigbus);
        }
    }
    const double timed_s = timed.seconds();
    const Counters after = readCounters(*m.eng);
    r.peakRssMb = peakRssMb();
    recordTimedPhase(before, after, setup_s, timed_s, r);
    r.sim["apps.bfs_calls"] = static_cast<double>(sources.size());

    if (tracer.enabled()) {
        r.host["bigraph.build_s"] = tracer.selfSeconds("bigraph.build");
        std::vector<double> calls = tracer.durations("apps.bfs");
        std::sort(calls.begin(), calls.end());
        if (!calls.empty()) {
            const std::size_t h = calls.size() / 2;
            r.host["apps.bfs_call_s"] =
                calls.size() % 2 ? calls[h] : (calls[h - 1] + calls[h]) / 2;
        }
    }
    if (capture_slice)
        replayLayers(capture.slice, m.eng->config().cache, r);

    r.attempted = sources.size();
    for (std::size_t i = 0; i < sources.size(); ++i) {
        const std::uint64_t d =
            digestOf(outs[i].parent,
                     static_cast<std::uint64_t>(outs[i].reached));
        r.outputDigest = r.outputDigest * kGolden + d;
        bool ok = !aborted[i];
        if (ok && !checker.verified.count(d)) {
            ok = verifyBfsTree(g, sources[i], outs[i]);
            if (ok)
                checker.verified.insert(d);
        }
        r.failed += ok ? 0 : 1;
    }

    seg.free(*m.heap, m.eng->thread(0));
    clearBigraphArtifacts();
    return r;
}

// ------------------------------------------------------------- kv_zipf

/** The store's hash (SplitMix64 finalizer), for the host model. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Value written by the @p seq'th SET, as runServing does. */
std::uint64_t
setValue(std::uint64_t seed, std::uint64_t seq)
{
    return (seed ^ 0x7365727665ULL) + seq;
}

constexpr std::uint64_t kMissDigest = 0x6d697373ULL;
constexpr std::uint64_t kSigbusDigest = 0x53494742ULL;

/**
 * Host replay of the prefill and the request stream on a
 * std::unordered_map of values plus a mirror of the open-addressed
 * slot layout (SCAN digests walk physical slots). Returns the expected
 * digest of every request followed by the expected checksum.
 */
std::vector<std::uint64_t>
hostKvReplay(const ServingSpec &spec)
{
    const std::uint64_t mask = spec.kv.tableSlots - 1;
    std::vector<std::uint64_t> table(spec.kv.tableSlots, 0);
    std::unordered_map<std::uint64_t, std::uint64_t> values;
    values.reserve(spec.gen.numKeys);
    const auto probe = [&](std::uint64_t key, bool for_insert) {
        std::uint64_t slot = mix(key) & mask;
        std::uint64_t first_free = ~std::uint64_t{0};
        for (std::uint64_t i = 0; i <= mask; ++i, slot = (slot + 1) & mask) {
            const std::uint64_t enc = table[slot];
            if (enc == key + 2)
                return slot;
            if (enc == 1) {
                if (first_free == ~std::uint64_t{0})
                    first_free = slot;
                continue;
            }
            if (enc == 0) {
                if (!for_insert)
                    return ~std::uint64_t{0};
                return first_free != ~std::uint64_t{0} ? first_free : slot;
            }
        }
        return first_free;
    };
    const auto set = [&](std::uint64_t key, std::uint64_t v) {
        table[probe(key, true)] = key + 2;
        values[key] = v;
    };

    for (std::uint64_t k = 0; k < spec.gen.numKeys; ++k)
        set(k, setValue(spec.gen.seed, spec.gen.requests + k));

    std::vector<std::uint64_t> out;
    out.reserve(spec.gen.requests + 1);
    std::uint64_t checksum = 0;
    RequestGenerator gen(spec.gen);
    ServeRequest req;
    for (std::uint64_t seq = 0; gen.next(&req); ++seq) {
        std::uint64_t digest = 0;
        switch (req.op) {
          case ServeOp::Get: {
            const auto it = values.find(req.key);
            digest = it == values.end()
                         ? kMissDigest
                         : SimKvStore::valueDigest(req.key, it->second,
                                                   spec.kv.valueWords);
            break;
          }
          case ServeOp::Set:
            set(req.key, setValue(spec.gen.seed, seq));
            break;
          case ServeOp::Del: {
            const std::uint64_t slot = probe(req.key, false);
            const bool live =
                slot != ~std::uint64_t{0} && table[slot] == req.key + 2;
            if (live) {
                table[slot] = 1;
                values.erase(req.key);
            }
            digest = live ? 1 : 2;
            break;
          }
          case ServeOp::Scan: {
            std::uint64_t slot = mix(req.key) & mask;
            for (std::uint32_t i = 0; i < req.scanLength;
                 ++i, slot = (slot + 1) & mask) {
                const std::uint64_t enc = table[slot];
                if (enc > 1) {
                    const std::uint64_t k = enc - 2;
                    digest += k * kGolden + mix(k + values.at(k));
                }
            }
            break;
          }
        }
        out.push_back(digest);
        checksum += digest * kGolden;
    }
    checksum += static_cast<std::uint64_t>(values.size()) * kGolden;
    out.push_back(checksum);
    return out;
}

/** Serving scenario of kv_zipf: the repository's KV sizing for the
 *  keyspace, Zipf-0.99 keys, the request count from @p z. */
ServingSpec
kvSpec(std::uint64_t seed, const Sizes &z)
{
    WorkloadSpec w;
    w.app = App::KV;
    w.kind = GraphKind::Kron;  // Kron selects the Zipfian keyspace.
    w.scale = z.kvScale;
    w.seed = seed;
    ServingSpec spec = servingSpecFor(w);
    spec.gen.requests = z.kvRequests;
    return spec;
}

InstanceResult
runKvZipf(std::uint64_t seed, const Sizes &z, Tracer &tracer,
          Checker &checker, bool capture_slice)
{
    InstanceResult r;
    const ServingSpec spec = kvSpec(seed, z);
    Machine m;
    SliceCapture capture(capture_slice ? z.captureRecords : 0);
    std::unique_ptr<SimKvStore> kv;
    LatencyHistogram latency;

    const Stopwatch setup;
    {
        const auto span = tracer.span("setup");
        {
            const auto s = tracer.span("sim.engine_init");
            m.build(machineConfig(z.kvScale));
        }
        {
            const auto s = tracer.span("serve.prefill");
            ThreadContext &t0 = m.eng->thread(0);
            kv = std::make_unique<SimKvStore>(*m.eng, *m.heap, t0, spec.kv);
            const std::uint64_t base = spec.gen.requests;
            for (std::uint64_t k = 0; k < spec.gen.numKeys; ++k)
                kv->set(t0, k, setValue(spec.gen.seed, base + k));
        }
    }
    const double setup_s = setup.seconds();
    const Cycles prefill_end = m.eng->globalTime();
    r.sim["serve.prefill_sim_s"] = cyclesToSeconds(prefill_end);
    for (std::uint32_t i = 0; i < spec.serverThreads; ++i)
        m.eng->thread(i).setClock(prefill_end);
    m.eng->setServingLatencyProbe(&latency);
    const std::uint64_t probes_before = kv->totalProbes();

    // Per-request outputs, sized before timing so the replay never
    // reallocates.
    std::vector<std::uint64_t> digests;
    std::vector<Cycles> latencies;
    digests.reserve(spec.gen.requests);
    latencies.reserve(spec.gen.requests);
    std::uint64_t checksum = 0;

    if (capture_slice) {
        m.eng->addObserver(&capture);
        ++r.timedObservers;
    }
    const Counters before = readCounters(*m.eng);
    const Stopwatch timed;
    {
        const auto span = tracer.span("timed");
        const auto s = tracer.span("serve.replay");
        // Open loop: each request runs on its round-robin server thread
        // no earlier than its scheduled arrival; latency counts from
        // the arrival, so queueing behind a slow request shows.
        RequestGenerator gen(spec.gen);
        ServeRequest req;
        for (std::uint64_t seq = 0; gen.next(&req); ++seq) {
            ThreadContext &t = m.eng->thread(
                static_cast<std::uint32_t>(seq % spec.serverThreads));
            const Cycles arrival = prefill_end + req.arrival;
            if (t.clock() < arrival)
                t.setClock(arrival);
            const std::uint64_t sigbus =
                m.eng->kernel().vmstat().hwpoisonSigbus;
            std::uint64_t digest = 0;
            switch (req.op) {
              case ServeOp::Get: {
                const auto got = kv->get(t, req.key);
                digest = got.found ? got.value : kMissDigest;
                break;
              }
              case ServeOp::Set:
                kv->set(t, req.key, setValue(spec.gen.seed, seq));
                break;
              case ServeOp::Del:
                digest = kv->del(t, req.key) ? 1 : 2;
                break;
              case ServeOp::Scan:
                digest = kv->scan(t, req.key, req.scanLength);
                break;
            }
            if (m.eng->kernel().vmstat().hwpoisonSigbus != sigbus)
                digest = kSigbusDigest;
            const Cycles lat = t.clock() - arrival;
            latency.add(lat);
            latencies.push_back(lat);
            digests.push_back(digest);
            checksum += digest * kGolden;
        }
    }
    const double timed_s = timed.seconds();
    const Counters after = readCounters(*m.eng);
    r.peakRssMb = peakRssMb();
    m.eng->setServingLatencyProbe(nullptr);
    checksum += kv->liveKeys() * kGolden;
    const std::uint64_t probes = kv->totalProbes() - probes_before;
    kv->freeStorage(m.eng->thread(0));

    recordTimedPhase(before, after, setup_s, timed_s, r);
    const double requests = static_cast<double>(digests.size());
    const double to_us = 1e6 / static_cast<double>(kCyclesPerSecond);
    r.sim["serve.requests"] = requests;
    r.sim["serve.probes_per_request"] =
        ratio(static_cast<double>(probes), requests);
    r.sim["sim_p50_us"] = latency.percentile(0.50) * to_us;
    r.sim["sim_p99_us"] = latency.percentile(0.99) * to_us;
    r.sim["sim_p999_us"] = latency.percentile(0.999) * to_us;
    r.outputDigest = checksum;

    if (tracer.enabled()) {
        r.host["serve.prefill_s"] = tracer.selfSeconds("serve.prefill");
        r.host["serve.replay_s"] = tracer.selfSeconds("serve.replay");
        r.host["serve.ns_per_request"] =
            ratio(tracer.selfSeconds("serve.replay") * 1e9, requests);
    }
    if (capture_slice)
        replayLayers(capture.slice, m.eng->config().cache, r);

    // Check every answer against the host replay; a wrong or failed
    // request also counts as an SLO violation.
    if (checker.kvExpected.empty())
        checker.kvExpected = hostKvReplay(spec);
    const std::vector<std::uint64_t> &want = checker.kvExpected;
    const Cycles slo = spec.sloCycles();
    const std::size_t slo_bucket = LatencyHistogram::bucketIndex(slo);
    std::uint64_t violations = latency.countAtOrAbove(slo);
    r.attempted = digests.size();
    if (want.size() != digests.size() + 1) {
        r.failed = r.attempted;
    } else {
        for (std::size_t i = 0; i < digests.size(); ++i) {
            if (digests[i] == want[i])
                continue;
            ++r.failed;
            if (LatencyHistogram::bucketIndex(latencies[i]) < slo_bucket)
                ++violations;
        }
        if (r.failed == 0 && checksum != want.back())
            r.failed = 1;
    }
    r.sim["slo_violation_frac"] =
        ratio(static_cast<double>(violations), requests);
    return r;
}

}  // namespace

bool
verifyBfsTree(const memtier::SegmentedCsrView &g, memtier::NodeId source,
              const memtier::BfsOutput &out)
{
    using namespace memtier;
    const auto n = static_cast<std::size_t>(g.numNodes());
    if (out.parent.size() != n)
        return false;
    std::vector<std::int32_t> depth(n, -1);
    std::vector<NodeId> queue;
    queue.reserve(n);
    depth[static_cast<std::size_t>(source)] = 0;
    queue.push_back(source);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const NodeId u = queue[head];
        const std::int32_t du = depth[static_cast<std::size_t>(u)];
        forRawNeighbors(g, u, [&](NodeId v) {
            if (depth[static_cast<std::size_t>(v)] < 0) {
                depth[static_cast<std::size_t>(v)] = du + 1;
                queue.push_back(v);
            }
        });
    }
    if (static_cast<std::int64_t>(queue.size()) != out.reached)
        return false;
    for (std::size_t u = 0; u < n; ++u) {
        const NodeId p = out.parent[u];
        if ((depth[u] < 0) != (p < 0))
            return false;
        if (p < 0)
            continue;
        if (static_cast<NodeId>(u) == source) {
            if (p != source || depth[u] != 0)
                return false;
            continue;
        }
        bool found = false;
        forRawNeighbors(g, static_cast<NodeId>(u), [&](NodeId v) {
            found = found ||
                    (v == p && depth[static_cast<std::size_t>(v)] ==
                                   depth[u] - 1);
        });
        if (!found)
            return false;
    }
    return true;
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (const Workload w :
         {Workload::PrKron, Workload::BfsUrandOoc, Workload::KvZipf}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::PrKron: return "pr_kron";
      case Workload::BfsUrandOoc: return "bfs_urand_ooc";
      case Workload::KvZipf: return "kv_zipf";
    }
    return "?";
}

InstanceResult
runInstance(Workload w, std::uint64_t seed, const Sizes &sizes,
            Tracer &tracer, Checker &checker, bool capture_slice)
{
    InstanceResult r;
    switch (w) {
      case Workload::PrKron:
        r = runPrKron(seed, sizes, tracer, checker, capture_slice);
        break;
      case Workload::BfsUrandOoc:
        r = runBfsUrandOoc(seed, sizes, tracer, checker, capture_slice);
        break;
      case Workload::KvZipf:
        r = runKvZipf(seed, sizes, tracer, checker, capture_slice);
        break;
    }
    if (tracer.enabled())
        r.host["sim.engine_init_s"] = tracer.selfSeconds("sim.engine_init");
    return r;
}

}  // namespace perfbench
