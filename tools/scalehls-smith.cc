/**
 * @file
 * scalehls-smith: seeded random-kernel generator + differential
 * oracle. Every sample is generated from a pure (config, seed) pair,
 * L1/L2-verified at birth, and its design points are evaluated by the
 * uncached reference and by the production evaluator at 1 and N
 * threads, cold then warm, with and without the PLAN tier blocked (see
 * smith/oracle.h); ANY QoR, counter-invariant or L3/L4 audit divergence
 * fails the run and dumps a JSON reproducer that `--replay` re-executes
 * exactly.
 *
 * The exploration knobs come in through the same unified ExploreRequest
 * flag surface as scalehls-opt (-dse-threads, -dse-audit, the space
 * bounds), so smith probes the design spaces the real tools build.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/explore_request.h"
#include "smith/generator.h"
#include "smith/oracle.h"
#include "support/utils.h"

using namespace scalehls;

namespace {

void
usage()
{
    std::cout
        << "scalehls-smith: differential fuzzer for the DSE stack\n\n"
        << "Usage: scalehls-smith [mode] [options]\n\n"
        << "Modes (default: --corpus):\n"
        << "  --corpus <n>      generate and check n samples (default 20)\n"
        << "  --time-box <sec>  generate until the wall-clock box expires\n"
        << "  --replay <file>   re-execute every reproducer line in file\n"
        << "  --self-test       corrupt a PLAN entry, require it caught,\n"
        << "                    dump + replay the reproducer\n\n"
        << "Options:\n"
        << "  --seed <n>        base corpus seed (default 1)\n"
        << "  --points <n>      design points per sample (default 6)\n"
        << "  --out <file>      reproducer sink (default "
           "smith-reproducers.jsonl)\n"
        << "  --max-bands <n>   generator band cap (default 3)\n"
        << "  --max-depth <n>   generator nest-depth cap (default 3)\n"
        << "  --no-calls        disable Escaping (call) samples\n"
        << "  --no-dataflow     never mark dataflow tops\n"
        << "  --no-directives   pristine samples only\n"
        << "\nShared explore flags (same parser as scalehls-opt; smith "
           "uses\nthe space bounds, -dse-threads and -dse-audit):\n"
        << exploreFlagUsage();
}

/** "--flag=value" or "--flag value" (advances @p i). */
bool
valueArg(int argc, char **argv, int &i, const std::string &name,
         std::string *value)
{
    std::string arg = argv[i];
    if (arg == name) {
        if (i + 1 >= argc)
            fatal(name + " expects a value");
        *value = argv[++i];
        return true;
    }
    if (arg.rfind(name + "=", 0) == 0) {
        *value = arg.substr(name.size() + 1);
        return true;
    }
    return false;
}

uint64_t
parseCount(const std::string &name, const std::string &value)
{
    try {
        size_t pos = 0;
        uint64_t n = std::stoull(value, &pos);
        if (pos == value.size())
            return n;
    } catch (const std::exception &) {
    }
    fatal(name + " expects an unsigned integer, got '" + value + "'");
}

/** One reproducer line is "reproduced" when the recorded failure shows
 * up again: a divergence for ordinary records, the caught corruption
 * for self-test records. */
bool
reproduced(const SmithOracleResult &result, bool corrupt_plan)
{
    if (!result.divergences.empty())
        return true;
    return corrupt_plan && result.corruptionCaught;
}

int
replayFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open reproducer file: " << path << "\n";
        return 1;
    }
    std::string line;
    size_t records = 0, ok = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++records;
        std::string report;
        SmithOracleResult result;
        if (!replayReproducer(line, &report, &result)) {
            std::cerr << report;
            continue;
        }
        std::cout << report;
        bool corrupt = line.find("\"corrupt_plan\":true") !=
                       std::string::npos;
        if (reproduced(result, corrupt)) {
            ++ok;
            std::cout << "record " << records << ": reproduced\n";
        } else {
            std::cout << "record " << records << ": did NOT reproduce\n";
        }
    }
    std::cout << "JSON {\"bench\":\"smith_replay\",\"records\":" << records
              << ",\"reproduced\":" << ok << "}" << std::endl;
    if (records == 0) {
        std::cerr << "no reproducer records in " << path << "\n";
        return 1;
    }
    return ok == records ? 0 : 1;
}

int
selfTest(const SmithGenConfig &gen, SmithOracleConfig oracle,
         uint64_t base_seed, const std::string &out_path)
{
    oracle.corruptPlan = true;
    // Not every sample is plan-eligible (calls, pipelined tops); scan
    // seeds until the poisoned entry is actually consulted.
    for (uint64_t attempt = 0; attempt < 200; ++attempt) {
        uint64_t seed = base_seed * 1000003ull + attempt;
        SmithSample sample = generateSmithSample(gen, seed);
        SmithOracleResult result = runSmithOracle(sample, oracle);
        if (!result.corruptionApplicable)
            continue;

        std::cout << "self-test seed " << seed << " shape "
                  << sample.shape << "\n";
        if (!result.corruptionCaught || !result.divergences.empty()) {
            std::cerr << "self-test FAILED: corruption caught="
                      << (result.corruptionCaught ? "yes" : "no")
                      << ", divergences=" << result.divergences.size()
                      << "\n";
            for (const auto &d : result.divergences)
                std::cerr << "  [" << d.path << "] " << d.detail << "\n";
            return 1;
        }

        // Dump the catch as a reproducer record and prove --replay
        // re-executes it exactly (regeneration + re-detection).
        SmithDivergence record{"self-test@cold@1t",
                               "corrupted PLAN entry caught", {}};
        std::string json = reproducerJson(sample, oracle, record);
        {
            std::ofstream out(out_path, std::ios::app);
            if (!out) {
                std::cerr << "cannot write " << out_path << "\n";
                return 1;
            }
            out << json << "\n";
        }
        std::string report;
        SmithOracleResult replayed;
        if (!replayReproducer(json, &report, &replayed)) {
            std::cerr << "self-test replay failed:\n" << report;
            return 1;
        }
        std::cout << report;
        if (!replayed.corruptionCaught) {
            std::cerr << "self-test FAILED: replay did not re-detect "
                         "the corruption\n";
            return 1;
        }
        std::cout << "self-test PASSED (reproducer in " << out_path
                  << ")\n";
        std::cout << "JSON {\"bench\":\"smith_self_test\",\"ok\":1,"
                     "\"seed\":"
                  << seed << "}" << std::endl;
        return 0;
    }
    std::cerr << "self-test FAILED: no plan-eligible sample in 200 "
                 "seeds\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t corpus = 20;
    uint64_t base_seed = 1;
    double time_box = 0;
    std::string replay_path;
    std::string out_path = "smith-reproducers.jsonl";
    bool self_test = false;
    int points_per_sample = 6;

    SmithGenConfig gen;
    ExploreRequest request;
    request.applyEnvDefaults();

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            std::string value;
            if (arg == "-h" || arg == "--help") {
                usage();
                return 0;
            }
            std::string explore_error;
            if (parseExploreFlag(request, arg, &explore_error)) {
                if (!explore_error.empty()) {
                    std::cerr << explore_error << "\n";
                    return 1;
                }
                continue;
            }
            if (valueArg(argc, argv, i, "--corpus", &value))
                corpus = parseCount("--corpus", value);
            else if (valueArg(argc, argv, i, "--seed", &value))
                base_seed = parseCount("--seed", value);
            else if (valueArg(argc, argv, i, "--points", &value))
                points_per_sample = static_cast<int>(
                    parseCount("--points", value));
            else if (valueArg(argc, argv, i, "--time-box", &value))
                time_box = static_cast<double>(
                    parseCount("--time-box", value));
            else if (valueArg(argc, argv, i, "--replay", &value))
                replay_path = value;
            else if (valueArg(argc, argv, i, "--out", &value))
                out_path = value;
            else if (valueArg(argc, argv, i, "--max-bands", &value))
                gen.maxBands = static_cast<int>(
                    parseCount("--max-bands", value));
            else if (valueArg(argc, argv, i, "--max-depth", &value))
                gen.maxDepth = static_cast<int>(
                    parseCount("--max-depth", value));
            else if (arg == "--self-test")
                self_test = true;
            else if (arg == "--no-calls")
                gen.allowCalls = false;
            else if (arg == "--no-dataflow")
                gen.allowDataflowTop = false;
            else if (arg == "--no-directives")
                gen.allowDirectives = false;
            else
                fatal("unknown option '" + arg + "' (try --help)");
        }
    } catch (const FatalError &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }

    if (auto invalid = request.validate()) {
        std::cerr << *invalid << "\n";
        return 1;
    }

    SmithOracleConfig oracle;
    oracle.space = request.space;
    oracle.audit = true; // Audits ARE the point of a fuzzing run.
    oracle.threads =
        request.dse.numThreads != 0 ? request.dse.numThreads : 4;
    oracle.pointsPerSample = points_per_sample;

    if (!replay_path.empty())
        return replayFile(replay_path);
    if (self_test)
        return selfTest(gen, oracle, base_seed, out_path);

    // Corpus mode: --corpus n samples, or open-ended inside --time-box.
    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    size_t samples = 0, points = 0, evaluations = 0;
    size_t divergences = 0, audit_violations = 0;
    DSEStats decisions;
    std::map<std::string, size_t> shapes;
    std::ofstream repro_out;

    for (uint64_t i = 0;; ++i) {
        if (time_box > 0) {
            if (elapsed() >= time_box)
                break;
        } else if (i >= corpus) {
            break;
        }
        uint64_t seed = base_seed * 1000003ull + i;
        try {
            SmithSample sample = generateSmithSample(gen, seed);
            shapes[sample.shape.substr(0, sample.shape.find('+'))]++;
            SmithOracleResult result = runSmithOracle(sample, oracle);
            ++samples;
            points += result.points;
            evaluations += result.evaluations;
            decisions += result.decisions;
            if (!result.divergences.empty()) {
                divergences += result.divergences.size();
                for (const auto &d : result.divergences) {
                    std::cerr << "DIVERGENCE seed=" << seed << " ["
                              << d.path << "] " << d.detail << "\n";
                    if (d.path.rfind("audit@", 0) == 0)
                        ++audit_violations;
                }
                if (!repro_out.is_open())
                    repro_out.open(out_path, std::ios::app);
                repro_out << reproducerJson(sample, oracle,
                                            result.divergences.front())
                          << "\n";
            }
        } catch (const FatalError &error) {
            // A generator bug (invalid IR at birth) is as fatal as a
            // divergence: report and count it, keep fuzzing.
            std::cerr << "GENERATOR FAILURE seed=" << seed << ": "
                      << error.what() << "\n";
            ++divergences;
        }
    }

    double seconds = elapsed();
    std::cout << samples << " samples, " << points << " points, "
              << evaluations << " evaluations in " << seconds
              << "s; " << divergences << " divergence(s), "
              << audit_violations << " audit violation(s)\n";
    std::cout << "decisions: full=" << decisions.fullMaterializations
              << " plan-composed=" << decisions.planComposed
              << " overlay=" << decisions.overlayMaterializations
              << " plan-infeasible=" << decisions.planInfeasible << "\n";
    std::cout << "shape mix:";
    for (const auto &entry : shapes)
        std::cout << " " << entry.first << "=" << entry.second;
    std::cout << "\n";
    std::ostringstream bench;
    bench << "JSON {\"bench\":\"smith_corpus\",\"samples\":" << samples
          << ",\"points\":" << points
          << ",\"evaluations\":" << evaluations
          << ",\"divergences\":" << divergences
          << ",\"audit_violations\":" << audit_violations
          << ",\"full\":" << decisions.fullMaterializations
          << ",\"plan_composed\":" << decisions.planComposed
          << ",\"overlay\":" << decisions.overlayMaterializations
          << ",\"plan_infeasible\":" << decisions.planInfeasible
          << ",\"seconds\":" << seconds << ",\"evals_per_sec\":"
          << (seconds > 0 ? static_cast<double>(evaluations) / seconds
                          : 0)
          << "}";
    std::cout << bench.str() << std::endl;
    if (divergences != 0)
        std::cerr << "reproducers appended to " << out_path << "\n";
    return divergences == 0 ? 0 : 1;
}
