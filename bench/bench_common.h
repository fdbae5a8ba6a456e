/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every bench accepts the MEMTIER_SCALE environment variable (log2
 * vertices, default 18) so the suite can be run faster (16) or at
 * higher fidelity (19-20) without recompiling.
 */

#ifndef MEMTIER_BENCH_BENCH_COMMON_H_
#define MEMTIER_BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "base/csv.h"
#include "base/logging.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "profile/analysis.h"

namespace memtier {

/**
 * Parse @p text as a base-10 integer in [@p lo, @p hi]. Garbage,
 * trailing junk and out-of-range values are fatal, naming @p what (the
 * flag or environment variable), so a typo never runs a default.
 */
template <typename T>
T
parseIntArg(const char *what, const std::string &text, T lo, T hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE ||
        v < static_cast<long long>(lo) || v > static_cast<long long>(hi)) {
        fatal("%s=\"%s\": expected an integer in [%lld, %lld]", what,
              text.c_str(), static_cast<long long>(lo),
              static_cast<long long>(hi));
    }
    return static_cast<T>(v);
}

/** Split "a,b,c" into {"a","b","c"}; empty items are dropped. */
inline std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

inline App
parseApp(const std::string &s)
{
    if (s == "bc") return App::BC;
    if (s == "bfs") return App::BFS;
    if (s == "cc") return App::CC;
    if (s == "pr") return App::PR;
    if (s == "sssp") return App::SSSP;
    if (s == "kv") return App::KV;
    if (s == "lsm") return App::LSM;
    fatal("unknown app '%s' (expected bc, bfs, cc, pr, sssp, kv or lsm)",
          s.c_str());
}

inline GraphKind
parseKind(const std::string &s)
{
    if (s == "kron") return GraphKind::Kron;
    if (s == "urand") return GraphKind::Urand;
    fatal("unknown graph kind '%s' (expected kron or urand)", s.c_str());
}

/** Parse an APP:KIND workload flag value, e.g. pr:kron. */
inline WorkloadSpec
parseWorkload(const std::string &s, int scale, int trials)
{
    const std::size_t colon = s.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size())
        fatal("malformed workload '%s' (expected APP:KIND, e.g. pr:kron)",
              s.c_str());
    WorkloadSpec w;
    w.app = parseApp(s.substr(0, colon));
    w.kind = parseKind(s.substr(colon + 1));
    w.scale = scale;
    w.trials = trials;
    return w;
}

/** Simulated cycles -> microseconds. */
inline double
usec(double cycles)
{
    return cycles * 1e6 / static_cast<double>(kCyclesPerSecond);
}

/** Experiment scale: MEMTIER_SCALE env var in [10, 24], default 18. */
inline int
benchScale()
{
    if (const char *env = std::getenv("MEMTIER_SCALE"))
        return parseIntArg("MEMTIER_SCALE", env, 10, 24);
    return 18;
}

/**
 * Sparse sampling period used by the per-page touch/reuse analyses
 * (Figures 4 and 5). The paper samples a ~250 GB footprint with a few
 * million samples -- well under one sample per page; the default dense
 * period would count every page dozens of times and hide the
 * single-touch behaviour the paper reports.
 */
inline constexpr std::uint32_t kSparseSamplerPeriod = 8191;

/**
 * Tier capacity scaled with the workload so the footprint:DRAM pressure
 * is scale-invariant (base values are for the default scale 18).
 */
inline std::uint64_t
scaledCapacity(std::uint64_t base_at_18, int scale)
{
    return scale >= 18 ? base_at_18 << (scale - 18)
                       : base_at_18 >> (18 - scale);
}

/**
 * One paper workload on the scale-sized testbed under the default
 * autonuma policy, sampled every @p sampler_period accesses.
 */
inline RunConfig
benchConfig(const WorkloadSpec &w, std::uint32_t sampler_period = 61,
            bool thp = false)
{
    RunConfig rc;
    rc.workload = w;
    rc.sampler.period = sampler_period;
    rc.sys.dram = makeDramParams(scaledCapacity(24 * kMiB, w.scale));
    rc.sys.nvm = makeNvmParams(scaledCapacity(96 * kMiB, w.scale));
    rc.sys.thp.enabled = thp;
    return rc;
}

/** Run @p rc, announcing it on stderr. */
inline RunResult
runBench(const RunConfig &rc)
{
    std::cerr << "running " << rc.workload.name() << " ["
              << (rc.policy.empty() ? "vanilla" : rc.policy)
              << (rc.placement ? ", placement plan" : "")
              << (rc.sys.thp.enabled ? ", thp" : "")
              << "] scale=" << rc.workload.scale << "...\n";
    return runWorkload(rc);
}

/**
 * Consume a leading `--thp` argument if present (shared by the benches
 * that report a THP column). Returns true and shifts argv when found.
 */
inline bool
consumeThpFlag(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--thp") {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            return true;
        }
    }
    return false;
}

/** Header block naming the experiment. */
inline void
benchHeader(const std::string &what, const std::string &paper_ref)
{
    std::cout << "memtier reproduction: " << what << "\n"
              << "paper reference:      " << paper_ref << "\n"
              << "scale:                2^" << benchScale()
              << " vertices (set MEMTIER_SCALE to change)\n";
}

/**
 * The one writer of the machine-readable bench records (BENCH_*.json
 * and their CSV twins). A record is a JSON object of named fields, in
 * insertion order: scalars (string, bool, integer, double), nested
 * objects, and named arrays of rows, each row itself a record.
 *
 * Doubles print as std::ostream prints them by default (6 significant
 * digits), 64-bit integers print exactly, strings are escaped. A
 * reference returned by object() or addRow() stays valid until the
 * next row is added to the same array.
 */
class BenchRecord
{
  public:
    /** Set scalar field @p key (string, bool, integer or double). */
    template <typename T>
    BenchRecord &set(const std::string &key, const T &value)
    {
        Scalar &v = slot(key, Kind::Scalar).value;
        if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>)
            v = value;
        else if constexpr (std::is_signed_v<T>)
            v = static_cast<std::int64_t>(value);
        else if constexpr (std::is_integral_v<T>)
            v = static_cast<std::uint64_t>(value);
        else
            v = std::string(value);
        return *this;
    }

    /** The nested object under @p key, created on first use. */
    BenchRecord &object(const std::string &key)
    {
        return slot(key, Kind::Object).children[0];
    }

    /** Append a row to the array @p array, created on first use. */
    BenchRecord &addRow(const std::string &array)
    {
        return slot(array, Kind::Array).children.emplace_back();
    }

    /** The record as JSON text: top-level fields and rows one per line. */
    std::string json() const
    {
        std::ostringstream out;
        render(out, true);
        return out.str();
    }

    /**
     * Write the record to @p path as JSON, stamped with the host it ran
     * on (`host: {cpu, cores}`). Fatal, naming the path, when the file
     * cannot be written in full.
     */
    void writeJson(const std::string &path) const
    {
        BenchRecord stamped = *this;
        stamped.object("host")
            .set("cpu", hostCpuModel())
            .set("cores", sysconf(_SC_NPROCESSORS_ONLN));
        writeFile(path, stamped.json());
    }

    /**
     * Write the rows of @p array to @p path as CSV through CsvWriter:
     * one column per scalar field (nested objects are JSON-only), bools
     * as 1/0. Every row must carry the same scalar keys in the same
     * order. Fatal, naming the path, when the file cannot be written.
     */
    void writeCsv(const std::string &array, const std::string &path) const
    {
        std::ostringstream out;
        CsvWriter csv(out);
        const std::vector<BenchRecord> *rows = nullptr;
        for (const Field &f : fields) {
            if (f.key == array && f.kind == Kind::Array)
                rows = &f.children;
        }
        MEMTIER_ASSERT(rows != nullptr, "bench record has no such array");
        std::vector<std::string> header;
        for (const BenchRecord &row : *rows) {
            std::vector<std::string> columns;
            for (const Field &f : row.fields) {
                if (f.kind != Kind::Scalar)
                    continue;
                columns.push_back(f.key);
                std::visit(
                    [&csv](const auto &v) {
                        if constexpr (std::is_same_v<decltype(v), const bool &>)
                            csv.cell(std::string(v ? "1" : "0"));
                        else
                            csv.cell(v);
                    },
                    f.value);
            }
            if (header.empty())
                csv.header(header = columns);
            MEMTIER_ASSERT(columns == header,
                           "bench record rows disagree on their CSV columns");
            csv.endRow();
        }
        writeFile(path, out.str());
    }

  private:
    using Scalar = std::variant<std::string, bool, std::uint64_t,
                                std::int64_t, double>;
    enum class Kind { Scalar, Object, Array };

    struct Field
    {
        std::string key;
        Kind kind = Kind::Scalar;
        Scalar value;
        /** The nested object (one element) or the array's rows. */
        std::vector<BenchRecord> children;
    };

    Field &slot(const std::string &key, Kind kind)
    {
        for (Field &f : fields) {
            if (f.key == key) {
                MEMTIER_ASSERT(f.kind == kind,
                               "bench record key reused with another type");
                return f;
            }
        }
        // An object field holds its one nested record from the start.
        const std::size_t children = kind == Kind::Object ? 1 : 0;
        return fields.emplace_back(
            Field{key, kind, {}, std::vector<BenchRecord>(children)});
    }

    static void writeString(std::ostream &out, const std::string &s)
    {
        out << '"';
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                out << '\\' << c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x",
                              static_cast<unsigned>(c));
                out << esc;
            } else {
                out << c;
            }
        }
        out << '"';
    }

    void render(std::ostream &out, bool top) const
    {
        out << (top ? "{\n  " : "{");
        for (std::size_t i = 0; i < fields.size(); ++i) {
            const Field &f = fields[i];
            out << (i == 0 ? "" : top ? ",\n  " : ", ");
            writeString(out, f.key);
            out << ": ";
            if (f.kind == Kind::Object) {
                f.children[0].render(out, false);
            } else if (f.kind == Kind::Array) {
                out << '[';
                for (std::size_t r = 0; r < f.children.size(); ++r) {
                    out << (r ? ",\n    " : "\n    ");
                    f.children[r].render(out, false);
                }
                out << (f.children.empty() ? "]" : "\n  ]");
            } else {
                std::visit(
                    [&out](const auto &v) {
                        using V = std::decay_t<decltype(v)>;
                        if constexpr (std::is_same_v<V, std::string>)
                            writeString(out, v);
                        else if constexpr (std::is_same_v<V, bool>)
                            out << (v ? "true" : "false");
                        else
                            out << v;
                    },
                    f.value);
            }
        }
        out << (top ? "\n}\n" : "}");
    }

    /** The host CPU's model name from /proc/cpuinfo, or "unknown". */
    static std::string hostCpuModel()
    {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t colon = line.find(": ");
            if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
                return line.substr(colon + 2);
        }
        return "unknown";
    }

    static void writeFile(const std::string &path, const std::string &text)
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot open %s for writing", path.c_str());
        out << text;
        out.close();
        if (out.fail())
            fatal("failed writing %s", path.c_str());
    }

    std::vector<Field> fields;
};

}  // namespace memtier

#endif  // MEMTIER_BENCH_BENCH_COMMON_H_
