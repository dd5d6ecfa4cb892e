// suu::serve end-to-end coverage: the hardened JSON layer, the protocol
// envelope, the engine's determinism / single-flight / admission-control /
// session / streamed-shard invariants, and the stream and epoll transports —
// including the acceptance paths: wire responses byte-identical to direct
// api calls, concatenated shard envelopes byte-identical to
// ExperimentRunner::print_json over the canonical shard grid at any worker
// count, handle lifecycle edges (unknown/closed/expired → typed error,
// pinning blocks cache eviction until close), exactly one prepare for
// concurrent identical requests, and typed errors (never a crash) for
// malformed payloads.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/baselines.hpp"
#include "api/experiment.hpp"
#include "api/precompute_cache.hpp"
#include "api/registry.hpp"
#include "core/generators.hpp"
#include "core/io.hpp"
#include "service/engine.hpp"
#include "service/eventloop.hpp"
#include "service/fault.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace suu::service {
namespace {

// ---------------------------------------------------------------- helpers

std::string payload(const core::Instance& inst) {
  std::ostringstream os;
  core::write_instance(os, inst);
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out;
  json_append_quoted(out, s);
  return out;
}

core::Instance independent_instance(int n, int m, std::uint64_t seed) {
  util::Rng rng(seed);
  return core::make_independent(n, m,
                                core::MachineModel::uniform(0.3, 0.95), rng);
}

core::Instance chains_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  return core::make_chains(3, 2, 3, 3, core::MachineModel::uniform(0.3, 0.9),
                           rng);
}

// ---------------------------------------------------------------- json

TEST(ServiceJson, ParsesScalarsAndStructure) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool("x"), true);
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_double("x"), -1250.0);
  EXPECT_EQ(Json::parse("\"a\\nb\"").as_string("x"), "a\nb");
  const Json arr = Json::parse(" [1, 2, 3] ");
  ASSERT_EQ(arr.as_array("x").size(), 3u);
  const Json obj = Json::parse(R"({"b":1,"a":{"c":[true]}})");
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(ServiceJson, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string("x"), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string("x"), "\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string("x"),
            "\xf0\x9f\x98\x80");
  EXPECT_THROW(Json::parse("\"\\ud83d\""), JsonError);  // lone high
  EXPECT_THROW(Json::parse("\"\\ude00\""), JsonError);  // lone low
}

// String bodies are appended a run of plain bytes at a time: escapes at
// either edge of a run, back to back, and between long runs decode as the
// byte-at-a-time loop decoded them.
TEST(ServiceJson, EscapesAtRunBoundaries) {
  const std::pair<const char*, const char*> escapes[] = {
      {"\\n", "\n"},
      {"\\\"", "\""},
      {"\\\\", "\\"},
      {"\\/", "/"},
      {"\\t", "\t"},
      {"\\u00e9", "\xc3\xa9"},
      {"\\ud83d\\ude00", "\xf0\x9f\x98\x80"},
  };
  std::string text = "\"";
  std::string want;
  for (const std::size_t run : {0, 1, 2, 7, 64, 4097}) {
    for (const auto& [escaped, decoded] : escapes) {
      text += escaped;
      want += decoded;
      text.append(run, 'a');
      want.append(run, 'a');
    }
  }
  text += "\\n\"";
  want += "\n";
  EXPECT_EQ(Json::parse(text).as_string("x"), want);
  std::string encoded;
  json_append_quoted(encoded, want);
  EXPECT_EQ(Json::parse(encoded).as_string("x"), want);
}

// Error offsets after a long run are the byte-at-a-time loop's (recorded
// with it).
TEST(ServiceJson, ErrorOffsetsAfterLongRuns) {
  const std::string run(5000, 'x');
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      Json::parse(text);
    } catch (const JsonError& err) {
      return err.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error_of("\"" + run + "\x01\""),
            "unescaped control character in string at byte 5001");
  EXPECT_EQ(error_of("\"" + run + "\\n" + run + "\x1f\""),
            "unescaped control character in string at byte 10003");
  EXPECT_EQ(error_of("{\"" + run + "\n\":1}"),
            "unescaped control character in string at byte 5002");
  EXPECT_EQ(error_of("\"" + run), "unexpected end of input at byte 5001");
  EXPECT_EQ(error_of("\"" + run + "\\"),
            "unexpected end of input at byte 5002");
  EXPECT_EQ(error_of("\"" + run + "\\q\""),
            "bad escape character at byte 5002");
  EXPECT_EQ(error_of("\"" + run + "\\u12G4\""),
            "bad \\u escape digit at byte 5005");
}

TEST(ServiceJson, RejectsMalformed) {
  for (const char* bad :
       {"", "tru", "{", "[1,]", "{\"a\":}", "01", "1.", "1e", "nan",
        "Infinity", "\"unterminated", "\"\x01\"", "[1] trailing",
        "{\"a\":1,\"a\":2}", "[1 2]", "'single'"}) {
    EXPECT_THROW(Json::parse(bad), JsonError) << bad;
  }
}

TEST(ServiceJson, DepthLimit) {
  std::string deep(Json::kMaxDepth + 2, '[');
  EXPECT_THROW(Json::parse(deep), JsonError);
  const std::string ok = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_NO_THROW(Json::parse(ok));
}

TEST(ServiceJson, DeterministicDump) {
  const Json v = Json::parse(R"({"z":1,"a":[true,null,"s\n"],"m":2.5})");
  EXPECT_EQ(v.dump(), R"({"a":[true,null,"s\n"],"m":2.5,"z":1})");
  EXPECT_EQ(Json::parse("1.0").dump(), "1");  // integral canonicalization
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_THROW(json_number(std::nan("")), JsonError);
}

// ---------------------------------------------------------------- protocol

TEST(ServiceProtocol, ParsesEnvelope) {
  const Request req =
      parse_request(R"({"id":7,"method":"solve","params":{"instance":"x"}})");
  EXPECT_EQ(req.id.as_int64("id"), 7);
  EXPECT_EQ(req.method, "solve");
  ASSERT_TRUE(req.params.is_object());
}

TEST(ServiceProtocol, EnvelopeErrors) {
  EXPECT_THROW(parse_request("not json"), ProtocolError);
  EXPECT_THROW(parse_request("[1]"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"method":5})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"id":[1],"method":"stats"})"),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"method":"stats","extra":1})"),
               ProtocolError);
  // Codes are preserved.
  try {
    parse_request("{]");
    FAIL();
  } catch (const ProtocolError& err) {
    EXPECT_EQ(err.code(), error_code::kParseError);
  }
}

TEST(ServiceProtocol, ParamValidation) {
  const Json good = Json::parse(
      R"({"instance":"x","solver":"auto","options":{"grid_rounding":true}})");
  EXPECT_EQ(parse_solve_params(good).solver, "auto");
  EXPECT_TRUE(parse_solve_params(good).options.grid_rounding);

  EXPECT_THROW(parse_solve_params(Json::parse(R"({"solver":"auto"})")),
               ProtocolError);  // missing instance
  EXPECT_THROW(
      parse_solve_params(Json::parse(R"({"instance":"x","typo":1})")),
      ProtocolError);
  EXPECT_THROW(parse_solve_params(Json::parse(
                   R"({"instance":"x","options":{"unknown_opt":1}})")),
               ProtocolError);
  // Removed inputs are rejected with a typed bad_params, never ignored:
  // the warm_start option, the lp_engine option (one simplex engine
  // remains), and the lp1_solver and lp_pricing options (the code picks
  // the LP1 solver by size, and the engine has one pricing rule) no
  // longer exist.
  const auto bad_params_message = [](const std::string& params) {
    try {
      parse_solve_params(Json::parse(params));
    } catch (const ProtocolError& err) {
      EXPECT_EQ(err.code(), error_code::kBadParams) << params;
      return std::string(err.what());
    }
    ADD_FAILURE() << "accepted: " << params;
    return std::string();
  };
  EXPECT_NE(bad_params_message(
                R"({"instance":"x","options":{"warm_start":true}})")
                .find("unknown key 'warm_start'"),
            std::string::npos);
  const auto expect_unknown_key = [&](const std::string& key,
                                      const std::string& value) {
    const std::string params = R"({"instance":"x","options":{")" + key +
                               R"(":")" + value + R"("}})";
    EXPECT_NE(bad_params_message(params).find("unknown key '" + key + "'"),
              std::string::npos)
        << params;
  };
  for (const char* engine : {"auto", "tableau", "revised", "bogus"}) {
    expect_unknown_key("lp_engine", engine);
  }
  for (const char* solver : {"auto", "simplex", "frank-wolfe"}) {
    expect_unknown_key("lp1_solver", solver);
  }
  for (const char* rule : {"auto", "dantzig", "devex", "steepest"}) {
    expect_unknown_key("lp_pricing", rule);
  }
  // The LP1 size cutover round-trips through the wire over [0, 1e9]:
  // 0 forces Frank–Wolfe, 1e9 the simplex.
  const std::string limit_prefix =
      R"({"instance":"x","options":{"lp1_simplex_size_limit":)";
  for (const int limit : {0, 16, 1'000'000'000}) {
    const std::string params = limit_prefix + std::to_string(limit) + "}}";
    EXPECT_EQ(parse_solve_params(Json::parse(params))
                  .options.lp1.simplex_size_limit,
              limit)
        << params;
  }
  for (const char* limit : {"-1", "1000000001"}) {
    const std::string params = limit_prefix + limit + "}}";
    EXPECT_NE(bad_params_message(params).find("outside [0, 1000000000]"),
              std::string::npos)
        << params;
  }
  // Estimate-only keys are rejected for a plain solve...
  EXPECT_THROW(
      parse_solve_params(Json::parse(R"({"instance":"x","seed":1})")),
      ProtocolError);
  // ...but accepted (and bounded) for estimate.
  EXPECT_EQ(parse_estimate_params(
                Json::parse(R"({"instance":"x","replications":10})"), 100)
                .replications,
            10);
  EXPECT_THROW(parse_estimate_params(
                   Json::parse(R"({"instance":"x","replications":101})"), 100),
               ProtocolError);
  EXPECT_THROW(parse_estimate_params(
                   Json::parse(R"({"instance":"x","semantics":"magic"})"), 100),
               ProtocolError);
}

TEST(ServiceProtocol, HandleAndShardParams) {
  // Exactly one of instance/handle.
  EXPECT_THROW(parse_solve_params(Json::parse(R"({"solver":"auto"})")),
               ProtocolError);
  EXPECT_THROW(
      parse_solve_params(Json::parse(R"({"instance":"x","handle":1})")),
      ProtocolError);
  const SolveParams by_handle =
      parse_solve_params(Json::parse(R"({"handle":7})"));
  EXPECT_TRUE(by_handle.has_handle);
  EXPECT_EQ(by_handle.handle, 7u);
  EXPECT_THROW(parse_solve_params(Json::parse(R"({"handle":0})")),
               ProtocolError);  // handles start at 1
  // Estimate-only keys stay estimate-only.
  EXPECT_THROW(parse_solve_params(Json::parse(R"({"handle":1,"stream":true})")),
               ProtocolError);

  // Sharding knobs: bounded, consistent, and stream/shard are exclusive.
  const EstimateParams st = parse_estimate_params(
      Json::parse(R"({"handle":1,"replications":10,"stream":true,"shards":4})"),
      100);
  EXPECT_TRUE(st.stream);
  EXPECT_EQ(st.shards, 4);
  EXPECT_EQ(st.shard, -1);
  const EstimateParams one = parse_estimate_params(
      Json::parse(R"({"handle":1,"replications":10,"shards":4,"shard":3})"),
      100);
  EXPECT_EQ(one.shard, 3);
  EXPECT_THROW(
      parse_estimate_params(
          Json::parse(R"({"handle":1,"replications":10,"shards":11})"), 100),
      ProtocolError);  // shards > replications
  EXPECT_THROW(
      parse_estimate_params(
          Json::parse(R"({"handle":1,"replications":10,"shards":4,"shard":4})"),
          100),
      ProtocolError);  // shard out of range
  EXPECT_THROW(parse_estimate_params(
                   Json::parse(
                       R"({"handle":1,"stream":true,"shards":2,"shard":0})"),
                   100),
               ProtocolError);  // stream + shard

  // open/close params.
  EXPECT_EQ(parse_open_instance_params(Json::parse(R"({"instance":"x"})"))
                .instance_text,
            "x");
  EXPECT_THROW(parse_open_instance_params(Json::parse(R"({"handle":1})")),
               ProtocolError);
  EXPECT_EQ(parse_close_instance_params(Json::parse(R"({"handle":3})")).handle,
            3u);
  EXPECT_THROW(parse_close_instance_params(Json::parse("{}")), ProtocolError);

  // The deterministic contiguous partition tiles [0, R) exactly.
  int covered = 0;
  for (int s = 0; s < 7; ++s) {
    const auto [lo, hi] = shard_range(60, 7, s);
    EXPECT_EQ(lo, covered);
    EXPECT_LT(lo, hi);
    covered = hi;
  }
  EXPECT_EQ(covered, 60);
}

// ---------------------------------------------------------------- engine

TEST(ServiceEngine, ListSolversMatchesRegistry) {
  Engine engine;
  const std::string resp = engine.handle(R"({"id":1,"method":"list_solvers"})");
  const Json parsed = Json::parse(resp);
  EXPECT_TRUE(parsed.find("ok")->as_bool("ok"));
  const Json::Array& solvers =
      parsed.find("result")->find("solvers")->as_array("solvers");
  const std::vector<std::string> names = api::SolverRegistry::global().names();
  ASSERT_EQ(solvers.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(solvers[i].find("name")->as_string("name"), names[i]);
    EXPECT_EQ(solvers[i].find("summary")->as_string("summary"),
              api::SolverRegistry::global().summary(names[i]));
  }
}

// The acceptance bar: a solve+estimate round-trip over the wire returns the
// same objective/estimate bytes as direct api calls.
TEST(ServiceEngine, SolveAndEstimateMatchDirectApiBytes) {
  const auto inst = std::make_shared<const core::Instance>(
      independent_instance(8, 3, 21));
  const std::string text = payload(*inst);
  Engine engine;

  // solve: the objective (LP lower bound) must match lower_bound_auto.
  const std::string solve_resp = engine.handle(
      R"({"id":10,"method":"solve","params":{"instance":)" + quoted(text) +
      R"(,"lower_bound":true}})");
  const algos::LowerBound lb = api::lower_bound_auto(*inst);
  char fp[24];
  std::snprintf(fp, sizeof fp, "0x%016llx",
                static_cast<unsigned long long>(inst->fingerprint()));
  const std::string expected_solve =
      R"({"id":10,"ok":true,"result":{"solver":"suu-i-sem","n":8,"m":3,)"
      R"("fingerprint":")" + std::string(fp) + R"(","lower_bound":)" +
      util::fmt(lb.value, 6) + "}}";
  EXPECT_EQ(solve_resp, expected_solve);

  // estimate: byte-identical to a direct one-cell ExperimentRunner.
  api::ExperimentRunner::Options ropt;
  ropt.seed = 5;
  ropt.replications = 60;
  ropt.threads = 1;
  ropt.cell_threads = 1;
  ropt.skip_capped = true;
  api::ExperimentRunner runner(ropt);
  api::Cell cell;
  cell.instance_label = "direct";
  cell.instance = inst;
  cell.solver = "auto";
  runner.add(std::move(cell));
  const api::CellResult& r = runner.run().front();

  const std::string est_resp = engine.handle(
      R"({"id":11,"method":"estimate","params":{"instance":)" + quoted(text) +
      R"(,"solver":"auto","replications":60,"seed":5}})");
  const std::string expected_est =
      R"({"id":11,"ok":true,"result":{"solver":")" + r.solver +
      R"(","n":8,"m":3,"replications":60,"capped":0,"mean":)" +
      util::fmt(r.makespan.mean, 6) + R"(,"ci95":)" +
      util::fmt(r.makespan.ci95_half, 6) + R"(,"stddev":)" +
      util::fmt(r.makespan.stddev, 6) + R"(,"min":)" +
      util::fmt(r.makespan.min, 6) + R"(,"max":)" +
      util::fmt(r.makespan.max, 6) + "}}";
  EXPECT_EQ(est_resp, expected_est);
}

TEST(ServiceEngine, StructureDispatchAndNamedSolvers) {
  Engine engine;
  const std::string chains = quoted(payload(chains_instance(3)));
  const Json resp = Json::parse(engine.handle(
      R"({"id":1,"method":"solve","params":{"instance":)" + chains + "}}"));
  EXPECT_EQ(resp.find("result")->find("solver")->as_string("solver"),
            "suu-c");

  // A structure-mismatched named solver is a typed client error: suu-c on
  // a diamond dag (not a disjoint union of chains).
  core::Dag diamond(4);
  diamond.add_edge(0, 1);
  diamond.add_edge(0, 2);
  diamond.add_edge(1, 3);
  diamond.add_edge(2, 3);
  const core::Instance diamond_inst(4, 2, std::vector<double>(8, 0.5),
                                    std::move(diamond));
  const Json err = Json::parse(engine.handle(
      R"({"id":2,"method":"solve","params":{"instance":)" +
      quoted(payload(diamond_inst)) + R"(,"solver":"suu-c"}})"));
  EXPECT_FALSE(err.find("ok")->as_bool("ok"));
  EXPECT_EQ(err.find("error")->find("code")->as_string("code"),
            error_code::kBadParams);
}

TEST(ServiceEngine, MalformedPayloadsYieldTypedErrorsNeverCrash) {
  Engine engine;
  const auto code_of = [&](const std::string& line) {
    const Json resp = Json::parse(engine.handle(line));
    EXPECT_FALSE(resp.find("ok")->as_bool("ok")) << line;
    return resp.find("error")->find("code")->as_string("code");
  };

  EXPECT_EQ(code_of("garbage"), error_code::kParseError);
  EXPECT_EQ(code_of("[]"), error_code::kBadRequest);
  EXPECT_EQ(code_of(R"({"id":1,"method":"frobnicate"})"),
            error_code::kUnknownMethod);
  EXPECT_EQ(code_of(R"({"id":1,"method":"solve"})"), error_code::kBadParams);
  // Type mismatches are the client's fault, not "internal" errors.
  EXPECT_EQ(code_of(R"({"id":1,"method":"solve","params":{"instance":5}})"),
            error_code::kBadParams);
  EXPECT_EQ(code_of(
                R"({"id":1,"method":"estimate","params":{"instance":"x","replications":1.5}})"),
            error_code::kBadParams);
  EXPECT_EQ(code_of(
                R"({"id":1,"method":"solve","params":{"instance":"x","solver":"nope"}})"),
            error_code::kBadInstance);  // bad payload reported first
  const std::string good = quoted(payload(independent_instance(3, 2, 4)));
  EXPECT_EQ(code_of(R"({"id":1,"method":"solve","params":{"instance":)" +
                    good + R"(,"solver":"nope"}})"),
            error_code::kUnknownSolver);

  // Malformed instance payloads, each a distinct attack shape.
  const auto inst_code = [&](const std::string& inst_text) {
    return code_of(R"({"id":1,"method":"solve","params":{"instance":)" +
                   quoted(inst_text) + "}}");
  };
  EXPECT_EQ(inst_code("not-an-instance"), error_code::kBadInstance);
  EXPECT_EQ(inst_code("suu-instance v1\n-3 1\n"), error_code::kBadInstance);
  EXPECT_EQ(inst_code("suu-instance v1\n99999999999999999999 1\n"),
            error_code::kBadInstance);  // stol overflow
  EXPECT_EQ(inst_code("suu-instance v1\n16777215 16777215\n"),
            error_code::kBadInstance);  // cells limit, no allocation
  EXPECT_EQ(inst_code("suu-instance v1\n1 1\nnan\n0\n"),
            error_code::kBadInstance);
  EXPECT_EQ(inst_code("suu-instance v1\n1 1\n1.5\n0\n"),
            error_code::kBadInstance);
  EXPECT_EQ(inst_code("suu-instance v1\n2 1\n0.5\n0.5\n1\n0 7\n"),
            error_code::kBadInstance);  // edge out of range
  EXPECT_EQ(inst_code("suu-instance v1\n2 1\n0.5\n0.5\n2\n0 1\n1 0\n"),
            error_code::kBadInstance);  // cycle
  EXPECT_EQ(inst_code("suu-instance v1\n2 1\n0.5\n0.5\n1\n"),
            error_code::kBadInstance);  // truncated

  // Oversized request line.
  Engine::Config small;
  small.max_line_bytes = 128;
  Engine tiny(small);
  const Json resp = Json::parse(tiny.handle(std::string(256, ' ')));
  EXPECT_EQ(resp.find("error")->find("code")->as_string("code"),
            error_code::kParseError);
}

TEST(ServiceEngine, EstimateAllCappedIsTypedError) {
  Engine engine;
  const std::string text =
      quoted(payload(independent_instance(4, 2, 13)));
  const Json resp = Json::parse(engine.handle(
      R"({"id":1,"method":"estimate","params":{"instance":)" + text +
      R"(,"solver":"all-on-one","replications":5,"step_cap":1}})"));
  EXPECT_FALSE(resp.find("ok")->as_bool("ok"));
  EXPECT_EQ(resp.find("error")->find("code")->as_string("code"),
            error_code::kCapped);
}

TEST(ServiceEngine, BorrowedInstanceSolversWorkThroughService) {
  // exact-dp's factory borrows the prepare-time Instance; the single-flight
  // result must keep it alive for the whole request.
  Engine engine;
  const std::string text = quoted(payload(independent_instance(3, 2, 17)));
  const Json resp = Json::parse(engine.handle(
      R"({"id":1,"method":"estimate","params":{"instance":)" + text +
      R"(,"solver":"exact-dp","replications":20}})"));
  EXPECT_TRUE(resp.find("ok")->as_bool("ok")) << resp.dump();
  EXPECT_EQ(resp.find("result")->find("solver")->as_string("solver"),
            "exact-dp");
}

// Concurrent identical requests trigger exactly one prepare (single-flight
// on top of the PrecomputeCache), verified via cache stats.
TEST(ServiceEngine, SingleFlightCoalescesConcurrentIdenticalPrepares) {
  static std::atomic<int> prepare_calls{0};
  static std::mutex gate_mu;
  static std::condition_variable gate_cv;
  static bool gate_open = false;

  api::SolverRegistry::global().add(
      "test-single-flight",
      [](const core::Instance&, const api::SolverOptions&) {
        prepare_calls.fetch_add(1);
        std::unique_lock<std::mutex> lock(gate_mu);
        gate_cv.wait(lock, [] { return gate_open; });
        return sim::PolicyFactory(
            [] { return std::make_unique<algos::AllOnOnePolicy>(); });
      },
      "blocks until released; counts prepare calls");

  constexpr int kClients = 4;
  Engine::Config cfg;
  cfg.workers = kClients;
  Engine engine(cfg);

  const std::string line =
      R"({"id":1,"method":"solve","params":{"instance":)" +
      quoted(payload(independent_instance(5, 2, 99))) +
      R"(,"solver":"test-single-flight"}})";

  api::PrecomputeCache::global().reset_stats();
  std::mutex done_mu;
  std::vector<std::string> responses;
  for (int c = 0; c < kClients; ++c) {
    engine.submit(line, [&](std::string&& resp, bool) {
      std::lock_guard<std::mutex> lock(done_mu);
      responses.push_back(std::move(resp));
    });
  }
  // Wait until the leader is inside the preparer and every follower is
  // parked on the shared future, then release the gate.
  while (true) {
    const Engine::Stats s = engine.stats();
    if (prepare_calls.load() >= 1 && s.coalesced >= kClients - 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.drain();

  EXPECT_EQ(prepare_calls.load(), 1);  // exactly one prepare ran
  const api::PrecomputeCache::Stats cache =
      api::PrecomputeCache::global().stats();
  EXPECT_EQ(cache.misses, 1u);  // and it hit the cache exactly once
  EXPECT_EQ(cache.hits, 0u);    // followers never touched the cache
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kClients));
  for (const std::string& r : responses) {
    EXPECT_EQ(r, responses.front());  // byte-identical responses
  }
  EXPECT_EQ(engine.stats().coalesced, static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServiceEngine, BoundedAdmissionRejectsOverload) {
  static std::mutex gate_mu;
  static std::condition_variable gate_cv;
  static bool gate_open = false;

  api::SolverRegistry::global().add(
      "test-admission-block",
      [](const core::Instance&, const api::SolverOptions&) {
        std::unique_lock<std::mutex> lock(gate_mu);
        gate_cv.wait(lock, [] { return gate_open; });
        return sim::PolicyFactory(
            [] { return std::make_unique<algos::AllOnOnePolicy>(); });
      },
      "blocks until released");

  Engine::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  Engine engine(cfg);
  const std::string line =
      R"({"id":1,"method":"solve","params":{"instance":)" +
      quoted(payload(independent_instance(4, 2, 123))) +
      R"(,"solver":"test-admission-block"}})";

  std::mutex done_mu;
  std::vector<std::string> async_responses;
  engine.submit(line, [&](std::string&& resp, bool) {
    std::lock_guard<std::mutex> lock(done_mu);
    async_responses.push_back(std::move(resp));
  });

  // Capacity 1 is now occupied: the next submit is rejected inline.
  std::string rejected;
  engine.submit(R"({"id":2,"method":"stats"})",
                [&](std::string&& resp, bool) { rejected = std::move(resp); });
  const Json rej = Json::parse(rejected);
  EXPECT_FALSE(rej.find("ok")->as_bool("ok"));
  EXPECT_EQ(rej.find("error")->find("code")->as_string("code"),
            error_code::kOverloaded);
  EXPECT_EQ(rej.find("id")->as_int64("id"), 2);  // id still echoed

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.drain();
  EXPECT_EQ(engine.stats().rejected, 1u);
  ASSERT_EQ(async_responses.size(), 1u);
  EXPECT_TRUE(Json::parse(async_responses.front()).find("ok")->as_bool("ok"));
}

TEST(ServiceEngine, ShutdownStopsAdmission) {
  Engine engine;
  const Json resp =
      Json::parse(engine.handle(R"({"id":1,"method":"shutdown"})"));
  EXPECT_TRUE(resp.find("ok")->as_bool("ok"));
  EXPECT_TRUE(engine.stopping());

  std::string after;
  engine.submit(R"({"id":2,"method":"stats"})",
                [&](std::string&& r, bool) { after = std::move(r); });
  const Json rej = Json::parse(after);
  EXPECT_EQ(rej.find("error")->find("code")->as_string("code"),
            error_code::kShuttingDown);
}

// ---------------------------------------------------------------- sessions

TEST(ServiceEngine, SessionHandleLifecycle) {
  Engine engine;
  const core::Instance inst = independent_instance(6, 3, 51);
  const std::string text = quoted(payload(inst));

  // open_instance: parsed once, fingerprinted, handle 1 on a fresh engine.
  const Json opened = Json::parse(engine.handle(
      R"({"id":1,"method":"open_instance","params":{"instance":)" + text +
      "}}"));
  ASSERT_TRUE(opened.find("ok")->as_bool("ok"));
  const Json* res = opened.find("result");
  EXPECT_EQ(res->find("handle")->as_int64("handle"), 1);
  EXPECT_EQ(res->find("n")->as_int64("n"), 6);
  EXPECT_EQ(res->find("m")->as_int64("m"), 3);
  char fp[24];
  std::snprintf(fp, sizeof fp, "0x%016llx",
                static_cast<unsigned long long>(inst.fingerprint()));
  EXPECT_EQ(res->find("fingerprint")->as_string("fingerprint"), fp);

  // solve/estimate through the handle answer byte-identically to the same
  // request with the instance inlined.
  const std::string inline_solve = engine.handle(
      R"({"id":9,"method":"solve","params":{"instance":)" + text +
      R"(,"lower_bound":true}})");
  const std::string handle_solve = engine.handle(
      R"({"id":9,"method":"solve","params":{"handle":1,"lower_bound":true}})");
  EXPECT_EQ(handle_solve, inline_solve);
  const std::string inline_est = engine.handle(
      R"({"id":9,"method":"estimate","params":{"instance":)" + text +
      R"(,"replications":25,"seed":3}})");
  const std::string handle_est = engine.handle(
      R"({"id":9,"method":"estimate","params":{"handle":1,"replications":25,"seed":3}})");
  EXPECT_EQ(handle_est, inline_est);

  // close_instance releases the handle; closed == unknown thereafter.
  const Json closed = Json::parse(engine.handle(
      R"({"id":2,"method":"close_instance","params":{"handle":1}})"));
  EXPECT_TRUE(closed.find("ok")->as_bool("ok"));
  EXPECT_TRUE(closed.find("result")->find("closed")->as_bool("closed"));
  for (const char* line :
       {R"({"id":3,"method":"solve","params":{"handle":1}})",
        R"({"id":4,"method":"estimate","params":{"handle":1}})",
        R"({"id":5,"method":"close_instance","params":{"handle":1}})",
        R"({"id":6,"method":"solve","params":{"handle":77}})"}) {
    const Json resp = Json::parse(engine.handle(line));
    EXPECT_FALSE(resp.find("ok")->as_bool("ok")) << line;
    EXPECT_EQ(resp.find("error")->find("code")->as_string("code"),
              error_code::kUnknownHandle)
        << line;
  }

  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.sessions_opened, 1u);
  EXPECT_EQ(s.sessions_closed, 1u);
  EXPECT_EQ(s.sessions_expired, 0u);
  EXPECT_EQ(s.open_handles, 0u);
}

TEST(ServiceEngine, LruHandleExpiryOnMaxOpenHandles) {
  Engine::Config cfg;
  cfg.max_open_handles = 2;
  Engine engine(cfg);
  const auto open = [&](std::uint64_t seed) {
    const Json resp = Json::parse(engine.handle(
        R"({"id":1,"method":"open_instance","params":{"instance":)" +
        quoted(payload(independent_instance(4, 2, seed))) + "}}"));
    return resp.find("result")->find("handle")->as_int64("handle");
  };
  const std::int64_t h1 = open(1);
  const std::int64_t h2 = open(2);
  // Touch h1: it becomes most-recently-used, so opening a third handle
  // expires h2, not h1.
  EXPECT_TRUE(Json::parse(engine.handle(
                  R"({"id":2,"method":"solve","params":{"handle":)" +
                  std::to_string(h1) + "}}"))
                  .find("ok")
                  ->as_bool("ok"));
  const std::int64_t h3 = open(3);
  EXPECT_EQ(std::vector<std::int64_t>({h1, h2, h3}),
            std::vector<std::int64_t>({1, 2, 3}));
  const Json expired = Json::parse(engine.handle(
      R"({"id":3,"method":"solve","params":{"handle":2}})"));
  EXPECT_EQ(expired.find("error")->find("code")->as_string("code"),
            error_code::kUnknownHandle);
  EXPECT_TRUE(Json::parse(engine.handle(
                  R"({"id":4,"method":"solve","params":{"handle":1}})"))
                  .find("ok")
                  ->as_bool("ok"));
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.sessions_opened, 3u);
  EXPECT_EQ(s.sessions_expired, 1u);
  EXPECT_EQ(s.open_handles, 2u);
}

TEST(ServiceEngine, MaxOpenHandlesZeroClampsToOneWithoutPhantomExpiry) {
  Engine::Config cfg;
  cfg.max_open_handles = 0;  // clamped to 1
  Engine engine(cfg);
  const auto open = [&](std::uint64_t seed) {
    return Json::parse(engine.handle(
               R"({"id":1,"method":"open_instance","params":{"instance":)" +
               quoted(payload(independent_instance(4, 2, seed))) + "}}"))
        .find("result")
        ->find("handle")
        ->as_int64("handle");
  };
  EXPECT_EQ(open(1), 1);
  // The first open has no victim: it must not count a phantom expiry.
  EXPECT_EQ(engine.stats().sessions_expired, 0u);
  EXPECT_EQ(open(2), 2);  // now handle 1 is the LRU victim
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.sessions_expired, 1u);
  EXPECT_EQ(s.open_handles, 1u);
  EXPECT_EQ(Json::parse(engine.handle(
                R"({"id":2,"method":"solve","params":{"handle":1}})"))
                .find("error")
                ->find("code")
                ->as_string("code"),
            error_code::kUnknownHandle);
}

TEST(ServiceEngine, HandlePinningBlocksLruEvictionUntilClose) {
  api::PrecomputeCache& cache = api::PrecomputeCache::global();
  cache.clear();
  cache.set_capacity(1);

  Engine engine;
  const std::string pinned_text =
      quoted(payload(independent_instance(5, 2, 61)));
  const Json opened = Json::parse(engine.handle(
      R"({"id":1,"method":"open_instance","params":{"instance":)" +
      pinned_text + "}}"));
  ASSERT_TRUE(opened.find("ok")->as_bool("ok"));

  // Preparing through the handle pins the prepare key.
  EXPECT_TRUE(Json::parse(engine.handle(
                  R"({"id":2,"method":"solve","params":{"handle":1}})"))
                  .find("ok")
                  ->as_bool("ok"));
  EXPECT_EQ(cache.stats().pinned, 1u);
  EXPECT_EQ(cache.stats().size, 1u);

  // Unpinned traffic cannot push the pinned entry out: with capacity 1 the
  // newcomers are evicted instead, and the handle's next request is still
  // a cache hit.
  for (std::uint64_t seed = 70; seed < 73; ++seed) {
    (void)engine.handle(
        R"({"id":3,"method":"solve","params":{"instance":)" +
        quoted(payload(independent_instance(5, 2, seed))) + "}}");
  }
  cache.reset_stats();
  EXPECT_TRUE(Json::parse(engine.handle(
                  R"({"id":4,"method":"solve","params":{"handle":1}})"))
                  .find("ok")
                  ->as_bool("ok"));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);

  // close_instance unpins; the entry is ordinary LRU prey again.
  (void)engine.handle(
      R"({"id":5,"method":"close_instance","params":{"handle":1}})");
  EXPECT_EQ(cache.stats().pinned, 0u);
  (void)engine.handle(
      R"({"id":6,"method":"solve","params":{"instance":)" +
      quoted(payload(independent_instance(5, 2, 80))) + "}}");
  cache.reset_stats();
  (void)engine.handle(
      R"({"id":7,"method":"solve","params":{"instance":)" + pinned_text +
      "}}");
  EXPECT_EQ(cache.stats().misses, 1u);  // evicted once unpinned

  cache.clear();
  cache.set_capacity(256);
  cache.reset_stats();
}

// ---------------------------------------------------------------- streaming

namespace {

/// Split a multi-line handle() response into its envelope lines.
std::vector<std::string> split_lines(const std::string& joined) {
  std::vector<std::string> lines;
  std::istringstream is(joined);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// Extract the "shard" row object from a shard envelope line.
std::string shard_row_of(const std::string& envelope) {
  const std::string key = "\"shard\":";
  const std::size_t pos = envelope.find(key);
  EXPECT_NE(pos, std::string::npos) << envelope;
  return envelope.substr(pos + key.size(),
                         envelope.size() - (pos + key.size()) - 1);
}

}  // namespace

// The acceptance bar: concatenating the K shard envelopes' tables is
// byte-identical to ExperimentRunner::print_json over the canonical shard
// grid — at any engine worker count and any runner cell_threads — and the
// terminal aggregate is byte-identical to the unstreamed estimate at any
// shard count.
TEST(ServiceEngine, ShardConcatByteIdenticalToRunnerAcrossWorkerCounts) {
  constexpr int kReps = 60;
  constexpr int kShards = 4;
  const auto inst = std::make_shared<const core::Instance>(
      independent_instance(8, 3, 21));
  const std::string text = payload(*inst);

  // Canonical shard grid, straight through the api layer: K cells sharing
  // seed stream 1, covering [0, kReps) in rep_offset order.
  const api::PreparedSolver prepared =
      api::SolverRegistry::global().prepare(*inst, "auto", {});
  std::string expected;
  for (const unsigned cell_threads : {1u, 3u}) {
    api::ExperimentRunner::Options ropt;
    ropt.seed = 5;
    ropt.replications = kReps;
    ropt.skip_capped = true;
    ropt.threads = 1;
    ropt.cell_threads = cell_threads;
    api::ExperimentRunner runner(ropt);
    for (int s = 0; s < kShards; ++s) {
      const auto [lo, hi] = shard_range(kReps, kShards, s);
      api::Cell cell;
      cell.instance_label = "wire";
      cell.instance = inst;
      cell.factory = prepared.factory;
      cell.factory_label = prepared.name;
      cell.seed_stream = 1;
      cell.rep_offset = lo;
      cell.replications = hi - lo;
      runner.add(std::move(cell));
    }
    runner.run();
    std::ostringstream os;
    runner.print_json(os);
    if (expected.empty()) {
      expected = os.str();
    } else {
      EXPECT_EQ(expected, os.str());  // cell_threads never changes bytes
    }
  }

  const std::string request =
      R"({"id":"st","method":"estimate","params":{"instance":)" +
      quoted(text) +
      R"(,"replications":60,"seed":5,"stream":true,"shards":4}})";
  std::string reference_joined;
  for (const unsigned workers : {1u, 4u}) {
    Engine::Config cfg;
    cfg.workers = workers;
    Engine engine(cfg);

    // Through submit: lines arrive in seq order, last flagged exactly once.
    std::mutex mu;
    std::vector<std::pair<std::string, bool>> got;
    engine.submit(request, [&](std::string&& resp, bool last) {
      std::lock_guard<std::mutex> lock(mu);
      got.emplace_back(std::move(resp), last);
    });
    engine.drain();
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kShards) + 1);
    std::string concat;
    for (int s = 0; s < kShards; ++s) {
      EXPECT_FALSE(got[s].second);
      const Json env = Json::parse(got[s].first);
      EXPECT_EQ(env.find("seq")->as_int64("seq"), s);
      EXPECT_EQ(env.find("shards")->as_int64("shards"), kShards);
      concat += shard_row_of(got[s].first);
      concat.push_back('\n');
    }
    EXPECT_EQ(concat, expected);  // byte-identical shard tables
    EXPECT_TRUE(got.back().second);
    const Json done = Json::parse(got.back().first);
    EXPECT_TRUE(done.find("done")->as_bool("done"));
    EXPECT_EQ(done.find("seq")->as_int64("seq"), kShards);

    // Engine worker count never changes the joined response bytes.
    std::string joined;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i) joined.push_back('\n');
      joined += got[i].first;
    }
    EXPECT_EQ(joined, engine.handle(request));
    if (reference_joined.empty()) {
      reference_joined = joined;
    } else {
      EXPECT_EQ(reference_joined, joined);
    }

    // The terminal aggregate is byte-identical to the unstreamed estimate
    // (sharding is pure delivery), for this and any other shard count.
    const std::string plain = engine.handle(
        R"({"id":"st","method":"estimate","params":{"instance":)" +
        quoted(text) + R"(,"replications":60,"seed":5}})");
    const std::string plain_result =
        Json::parse(plain).find("result")->dump();
    EXPECT_EQ(done.find("result")->dump(), plain_result);
    for (const int k : {1, 3, 60}) {
      const std::string streamed = engine.handle(
          R"({"id":"st","method":"estimate","params":{"instance":)" +
          quoted(text) +
          R"(,"replications":60,"seed":5,"stream":true,"shards":)" +
          std::to_string(k) + "}}");
      const std::vector<std::string> lines = split_lines(streamed);
      ASSERT_EQ(lines.size(), static_cast<std::size_t>(k) + 1);
      EXPECT_EQ(Json::parse(lines.back()).find("result")->dump(),
                plain_result);
    }
  }
}

TEST(ServiceEngine, SingleShardFanOutMatchesStreamedEnvelopes) {
  const std::string text = quoted(payload(independent_instance(7, 3, 41)));
  Engine engine;
  const std::string streamed = engine.handle(
      R"({"id":1,"method":"estimate","params":{"instance":)" + text +
      R"(,"replications":30,"seed":9,"stream":true,"shards":3}})");
  const std::vector<std::string> lines = split_lines(streamed);
  ASSERT_EQ(lines.size(), 4u);
  // Each single-shard request ({"shard": s}) returns exactly the row the
  // streamed envelope s carried — the fan-out-across-connections path.
  for (int s = 0; s < 3; ++s) {
    const std::string one = engine.handle(
        R"({"id":1,"method":"estimate","params":{"instance":)" + text +
        R"(,"replications":30,"seed":9,"shards":3,"shard":)" +
        std::to_string(s) + "}}");
    const Json resp = Json::parse(one);
    ASSERT_TRUE(resp.find("ok")->as_bool("ok"));
    const Json* result = resp.find("result");
    EXPECT_EQ(result->find("seq")->as_int64("seq"), s);
    EXPECT_EQ(result->find("shards")->as_int64("shards"), 3);
    EXPECT_EQ(result->find("shard")->dump(),
              Json::parse(lines[static_cast<std::size_t>(s)])
                  .find("shard")
                  ->dump());
  }
}

TEST(ServiceEngine, StreamTerminatesWithTypedErrorOnCappedShard) {
  Engine engine;
  const std::string text = quoted(payload(independent_instance(4, 2, 13)));
  const std::string resp = engine.handle(
      R"({"id":1,"method":"estimate","params":{"instance":)" + text +
      R"(,"solver":"all-on-one","replications":6,"step_cap":1,"stream":true,"shards":2}})");
  // Shard 0 caps in full, so the stream is one terminal error line: no
  // shard envelope was emitted before the failure.
  const std::vector<std::string> lines = split_lines(resp);
  ASSERT_EQ(lines.size(), 1u);
  const Json err = Json::parse(lines.front());
  EXPECT_FALSE(err.find("ok")->as_bool("ok"));
  EXPECT_EQ(err.find("error")->find("code")->as_string("code"),
            error_code::kCapped);
}

// ---------------------------------------------------------------- transports

TEST(ServiceTransport, StreamServesPipelinedRequests) {
  Engine engine;
  std::istringstream in(R"({"id":1,"method":"stats"})"
                        "\n"
                        R"({"id":2,"method":"list_solvers"})"
                        "\n");
  std::ostringstream out;
  serve_stream(engine, in, out);
  std::istringstream lines(out.str());
  std::string line;
  std::map<std::int64_t, bool> ok_by_id;
  while (std::getline(lines, line)) {
    const Json resp = Json::parse(line);
    ok_by_id[resp.find("id")->as_int64("id")] =
        resp.find("ok")->as_bool("ok");
  }
  ASSERT_EQ(ok_by_id.size(), 2u);
  EXPECT_TRUE(ok_by_id[1]);
  EXPECT_TRUE(ok_by_id[2]);
}

TEST(ServiceTransport, StreamedEstimateWritesSeqOrderedLinesOnTheWire) {
  Engine engine;
  const std::string text = quoted(payload(independent_instance(5, 2, 19)));
  std::istringstream in(
      R"({"id":"e","method":"estimate","params":{"instance":)" + text +
      R"(,"replications":20,"seed":2,"stream":true,"shards":2}})" "\n");
  std::ostringstream out;
  serve_stream(engine, in, out);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<Json> envelopes;
  while (std::getline(lines, line)) envelopes.push_back(Json::parse(line));
  ASSERT_EQ(envelopes.size(), 3u);
  for (std::size_t i = 0; i < envelopes.size(); ++i) {
    EXPECT_EQ(envelopes[i].find("id")->as_string("id"), "e");
    EXPECT_EQ(envelopes[i].find("seq")->as_int64("seq"),
              static_cast<std::int64_t>(i));
    EXPECT_TRUE(envelopes[i].find("ok")->as_bool("ok"));
  }
  EXPECT_TRUE(envelopes.back().find("done")->as_bool("done"));
}

namespace {

/// Write `requests` to `fd` (pipelined), half-close, and read id->line
/// responses until EOF.
std::map<std::string, std::string> client_round_trip(
    int fd, const std::vector<std::string>& requests) {
  std::string batch;
  for (const std::string& r : requests) {
    batch += r;
    batch.push_back('\n');
  }
  std::size_t off = 0;
  while (off < batch.size()) {
    const ssize_t w = ::write(fd, batch.data() + off, batch.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      ADD_FAILURE() << "client write failed";
      break;
    }
    off += static_cast<std::size_t>(w);
  }
  ::shutdown(fd, SHUT_WR);  // server sees EOF after the batch

  std::string received;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    received.append(buf, static_cast<std::size_t>(r));
  }
  std::map<std::string, std::string> by_id;
  std::istringstream lines(received);
  std::string line;
  while (std::getline(lines, line)) {
    const Json resp = Json::parse(line);
    const Json* id = resp.find("id");
    std::string key = id->is_string() ? id->as_string("id") : id->dump();
    EXPECT_TRUE(by_id.emplace(std::move(key), line).second)
        << "duplicate reply id";
  }
  return by_id;
}

/// The event-loop limits TcpServer derives from an engine's Config, for
/// tests that hand socketpairs straight to an EventLoop.
EventLoop::Options loop_options(const Engine& engine) {
  EventLoop::Options opt;
  opt.max_line_bytes = engine.config().max_line_bytes;
  opt.max_outbound_bytes = engine.config().max_outbound_bytes;
  opt.idle_timeout_ms = engine.config().idle_timeout_ms;
  return opt;
}

}  // namespace

// N clients issuing interleaved requests over socketpairs multiplexed onto
// one event loop get byte-deterministic per-request responses regardless
// of worker count.
TEST(ServiceTransport, SocketpairResponsesAreByteDeterministicAcrossWorkerCounts) {
  constexpr int kClients = 3;
  const std::string indep = quoted(payload(independent_instance(6, 3, 31)));
  const std::string chains = quoted(payload(chains_instance(32)));

  // Each client pipelines a mixed bag of requests with distinct ids.
  std::vector<std::vector<std::string>> requests(kClients);
  for (int c = 0; c < kClients; ++c) {
    const std::string tag = "c" + std::to_string(c);
    requests[c] = {
        R"({"id":")" + tag + R"(-est","method":"estimate","params":{"instance":)" +
            indep + R"(,"replications":25,"seed":)" + std::to_string(c + 1) +
            "}}",
        R"({"id":")" + tag + R"(-solve","method":"solve","params":{"instance":)" +
            chains + R"(,"lower_bound":true}})",
        R"({"id":")" + tag + R"(-ls","method":"list_solvers"})",
        R"({"id":")" + tag + R"(-bad","method":"solve","params":{"instance":"junk"}})",
        R"({"id":")" + tag + R"(-unk","method":"no_such_method"})",
    };
  }

  const auto run_with_workers =
      [&](unsigned workers) -> std::map<std::string, std::string> {
    Engine::Config cfg;
    cfg.workers = workers;
    Engine engine(cfg);
    EventLoop loop(engine, loop_options(engine));
    std::vector<std::thread> clients;
    std::vector<int> client_fds(kClients);
    std::mutex merge_mu;
    std::map<std::string, std::string> merged;
    for (int c = 0; c < kClients; ++c) {
      int sv[2];
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0)
          << "socketpair failed";
      loop.add_connection(sv[0]);  // the loop owns and closes it
      client_fds[c] = sv[1];
    }
    std::thread loop_thread([&] { loop.run(); });
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto by_id = client_round_trip(client_fds[c], requests[c]);
        ::close(client_fds[c]);
        std::lock_guard<std::mutex> lock(merge_mu);
        merged.merge(by_id);
      });
    }
    for (std::thread& t : clients) t.join();
    loop.stop();
    loop_thread.join();
    return merged;
  };

  std::map<std::string, std::string> serial;
  run_with_workers(1).swap(serial);
  std::map<std::string, std::string> parallel;
  run_with_workers(4).swap(parallel);

  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kClients) * 5);
  EXPECT_EQ(serial, parallel);

  // And both match the synchronous library path, request by request.
  Engine reference;
  for (int c = 0; c < kClients; ++c) {
    for (const std::string& req : requests[c]) {
      const Json parsed = Json::parse(req);
      const Json* id = parsed.find("id");
      const std::string key =
          id->is_string() ? id->as_string("id") : id->dump();
      ASSERT_TRUE(serial.count(key)) << key;
      EXPECT_EQ(serial.at(key), reference.handle(req)) << key;
    }
  }
}

// An unframed over-long line (the residual buffer passes the cap with no
// newline in sight) gets one typed error, then the loop abandons the
// connection on its own: the peer never half-closes, yet reads EOF.
TEST(ServiceTransport, OverlongLineGetsErrorAndConnectionAbandoned) {
  Engine::Config cfg;
  cfg.max_line_bytes = 256;
  Engine engine(cfg);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string huge(1024, 'x');  // no newline: unframed over-long line
  ASSERT_EQ(::write(sv[1], huge.data(), huge.size()),
            static_cast<ssize_t>(huge.size()));
  EventLoop loop(engine, loop_options(engine));
  loop.add_connection(sv[0]);
  std::thread loop_thread([&] { loop.run(); });
  std::string received;
  char buf[512];
  for (;;) {
    const ssize_t r = ::read(sv[1], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    received.append(buf, static_cast<std::size_t>(r));
  }
  loop.stop();
  loop_thread.join();
  ::close(sv[1]);
  ASSERT_NE(received.find('\n'), std::string::npos);
  EXPECT_EQ(received.find('\n'), received.size() - 1) << "exactly one reply";
  const Json resp = Json::parse(received.substr(0, received.find('\n')));
  EXPECT_FALSE(resp.find("ok")->as_bool("ok"));
  EXPECT_EQ(resp.find("error")->find("code")->as_string("code"),
            error_code::kParseError);
  EXPECT_EQ(engine.stats().received, 0u) << "rejected at the transport";
}

TEST(ServiceTransport, TcpEndToEndWithWireShutdown) {
  Engine engine;
  TcpServer server(engine, 0);
  ASSERT_GT(server.port(), 0);
  std::thread server_thread([&] { server.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  const std::string inst = quoted(payload(independent_instance(5, 2, 77)));
  const auto by_id = client_round_trip(
      fd, {R"({"id":"s","method":"solve","params":{"instance":)" + inst + "}}",
           R"({"id":"q","method":"shutdown"})"});
  ::close(fd);
  server_thread.join();

  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_TRUE(Json::parse(by_id.at("s")).find("ok")->as_bool("ok"));
  EXPECT_TRUE(Json::parse(by_id.at("q")).find("ok")->as_bool("ok"));
  EXPECT_TRUE(engine.stopping());
}

// ------------------------------------------------------ fan-out plumbing
// The service-side half of the src/client/ fan-out contract: the shard
// grid's edge cases, the samples parameter, error classification, the
// fault-injection spec, idle-timeout hygiene, and pin release when a
// connection drops without close_instance.

// An inline payload reaches the instance reader as a view of the request's
// DOM string: parse_request moves params out of the parsed line, and the
// decoded params view the payload instead of copying it.
TEST(ServiceProtocol, InlinePayloadIsNotCopied) {
  const std::string text = payload(independent_instance(6, 3, 5));
  const Request req = parse_request(
      R"({"id":1,"method":"solve","params":{"instance":)" + quoted(text) +
      "}}");
  const std::string& dom = req.params.find("instance")->as_string("instance");
  EXPECT_EQ(dom, text);
  const SolveParams solve = parse_solve_params(req.params);
  EXPECT_EQ(solve.instance_text.data(), dom.data());
  EXPECT_EQ(solve.instance_text.size(), dom.size());
  const Json open_params = Json::parse(R"({"instance":)" + quoted(text) + "}");
  EXPECT_EQ(parse_open_instance_params(open_params).instance_text.data(),
            open_params.find("instance")->as_string("instance").data());
}

TEST(ServiceProtocol, ShardRangeEdgeCases) {
  // K == R: every shard is exactly one replication.
  for (int s = 0; s < 5; ++s) {
    const auto [lo, hi] = shard_range(5, 5, s);
    EXPECT_EQ(lo, s);
    EXPECT_EQ(hi, s + 1);
  }
  // The single-replication grid.
  EXPECT_EQ(shard_range(1, 1, 0), (std::pair<int, int>{0, 1}));
  // Partition invariant over a sweep: contiguous, non-empty (K <= R
  // guarantees it), tiling [0, R) exactly.
  for (int r = 1; r <= 40; ++r) {
    for (int k = 1; k <= r; ++k) {
      int covered = 0;
      for (int s = 0; s < k; ++s) {
        const auto [lo, hi] = shard_range(r, k, s);
        EXPECT_EQ(lo, covered);
        EXPECT_LT(lo, hi);
        covered = hi;
      }
      EXPECT_EQ(covered, r) << r << "/" << k;
    }
  }
  // Degenerate grids are caller bugs (the wire layer never lets them
  // through; see below), so shard_range treats them as contract breaks.
  EXPECT_THROW(shard_range(0, 1, 0), util::CheckError);   // R == 0
  EXPECT_THROW(shard_range(5, 0, 0), util::CheckError);   // K == 0
  EXPECT_THROW(shard_range(5, 6, 0), util::CheckError);   // K > R
  EXPECT_THROW(shard_range(5, 2, 2), util::CheckError);   // s == K
  EXPECT_THROW(shard_range(5, 2, -1), util::CheckError);  // s < 0
  EXPECT_THROW(
      parse_estimate_params(
          Json::parse(R"({"handle":1,"replications":10,"shards":0})"), 100),
      ProtocolError);
}

TEST(ServiceProtocol, SamplesParamRequiresSingleShard) {
  // samples is the fan-out merge hook: only meaningful on a single-shard
  // request, where the reply can carry that shard's raw makespans.
  EXPECT_THROW(
      parse_estimate_params(Json::parse(R"({"handle":1,"samples":true})"),
                            100),
      ProtocolError);
  EXPECT_THROW(parse_estimate_params(
                   Json::parse(
                       R"({"handle":1,"shards":4,"samples":true})"),
                   100),
               ProtocolError);  // shard count without shard selection
  const EstimateParams p = parse_estimate_params(
      Json::parse(
          R"({"handle":1,"replications":10,"shards":4,"shard":2,"samples":true})"),
      100);
  EXPECT_TRUE(p.samples);
  EXPECT_FALSE(
      parse_estimate_params(
          Json::parse(R"({"handle":1,"replications":10,"shards":4,"shard":2})"),
          100)
          .samples);
}

TEST(ServiceProtocol, ErrorClassification) {
  // The retry table the fan-out client keys every decision off. A
  // misclassification here either spins retries on hopeless requests or
  // gives up on recoverable ones — pin each code.
  for (const char* code :
       {error_code::kParseError, error_code::kBadRequest,
        error_code::kUnknownMethod, error_code::kBadParams,
        error_code::kBadInstance, error_code::kUnknownSolver,
        error_code::kCapped}) {
    EXPECT_EQ(classify_error(code), ErrorClass::Fatal) << code;
  }
  for (const char* code : {error_code::kOverloaded, error_code::kShuttingDown,
                           error_code::kInternal}) {
    EXPECT_EQ(classify_error(code), ErrorClass::Retryable) << code;
  }
  EXPECT_EQ(classify_error(error_code::kUnknownHandle), ErrorClass::Reopen);
  // Codes from a newer server default to the safe side: retry.
  EXPECT_EQ(classify_error("code_from_the_future"), ErrorClass::Retryable);
}

TEST(ServiceFault, SpecParsing) {
  FaultSpec spec;
  std::string err;
  EXPECT_TRUE(FaultSpec::parse("", &spec, &err));
  EXPECT_FALSE(spec.active());

  EXPECT_TRUE(FaultSpec::parse(
      "delay_ms=5,close_after_bytes=10,truncate_line=3,exit_after_lines=2,"
      "exit_after_bytes=100",
      &spec, &err));
  EXPECT_EQ(spec.delay_ms, 5);
  EXPECT_EQ(spec.close_after_bytes, 10);
  EXPECT_EQ(spec.truncate_line, 3);
  EXPECT_EQ(spec.exit_after_lines, 2);
  EXPECT_EQ(spec.exit_after_bytes, 100);
  EXPECT_TRUE(spec.active());

  EXPECT_FALSE(FaultSpec::parse("bogus=1", &spec, &err));
  EXPECT_NE(err.find("bogus"), std::string::npos);
  EXPECT_FALSE(FaultSpec::parse("delay_ms", &spec, &err));     // no '='
  EXPECT_FALSE(FaultSpec::parse("delay_ms=x", &spec, &err));   // not a number
  EXPECT_FALSE(FaultSpec::parse("delay_ms=99999999", &spec, &err));  // range
  EXPECT_FALSE(FaultSpec::parse("truncate_line=0", &spec, &err));    // min 1
}

TEST(ServiceFault, InjectorTruncatesClosesAndExits) {
  {  // truncate_line: half the line, then the connection is gone for good.
    FaultSpec spec;
    spec.truncate_line = 2;
    FaultInjector inj(spec);
    const auto a1 = inj.next("hello\n");
    EXPECT_EQ(a1.write_bytes, 6u);
    EXPECT_FALSE(a1.close_after);
    const auto a2 = inj.next("0123456789\n");
    EXPECT_EQ(a2.write_bytes, 5u);  // floor(11 / 2): mid-line cut
    EXPECT_TRUE(a2.close_after);
    const auto a3 = inj.next("x\n");
    EXPECT_EQ(a3.write_bytes, 0u);  // latched closed
    EXPECT_TRUE(a3.close_after);
  }
  {  // close_after_bytes lands inside a line: write exactly to the trigger.
    FaultSpec spec;
    spec.close_after_bytes = 5;
    FaultInjector inj(spec);
    const auto a1 = inj.next("abc\n");
    EXPECT_EQ(a1.write_bytes, 4u);
    EXPECT_FALSE(a1.close_after);
    const auto a2 = inj.next("defg\n");
    EXPECT_EQ(a2.write_bytes, 1u);
    EXPECT_TRUE(a2.close_after);
  }
  {  // exit_after_lines plans a crash after the Nth complete reply.
    FaultSpec spec;
    spec.exit_after_lines = 2;
    spec.delay_ms = 7;
    FaultInjector inj(spec);
    const auto a1 = inj.next("one\n");
    EXPECT_EQ(a1.delay_ms, 7);
    EXPECT_FALSE(a1.exit_after);
    const auto a2 = inj.next("two\n");
    EXPECT_EQ(a2.write_bytes, 4u);
    EXPECT_TRUE(a2.exit_after);
  }
}

TEST(ServiceTransport, DroppedConnectionReleasesPinsAndCountsSession) {
  const std::size_t base_pinned = api::PrecomputeCache::global().stats().pinned;
  Engine engine;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EventLoop loop(engine, loop_options(engine));
  loop.add_connection(sv[0]);
  std::thread loop_thread([&] { loop.run(); });

  // Sequential round-trips so the pin can be observed while the
  // connection is still up. Fresh engine: the first handle is 1.
  const auto round_trip = [&](const std::string& req) {
    const std::string framed = req + "\n";
    EXPECT_EQ(::write(sv[1], framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
    std::string line;
    char c = 0;
    while (::read(sv[1], &c, 1) == 1 && c != '\n') line.push_back(c);
    return line;
  };
  const std::string inst = quoted(payload(independent_instance(6, 2, 91)));
  const std::string open = round_trip(
      R"({"id":"o","method":"open_instance","params":{"instance":)" + inst +
      "}}");
  EXPECT_TRUE(Json::parse(open).find("ok")->as_bool("ok"));
  const std::string est = round_trip(
      R"({"id":"e","method":"estimate","params":{"handle":1,"replications":5}})");
  EXPECT_TRUE(Json::parse(est).find("ok")->as_bool("ok"));
  EXPECT_GT(api::PrecomputeCache::global().stats().pinned, base_pinned)
      << "an estimate through an open handle must pin its cache entry";

  // Drop the connection without close_instance — the session teardown
  // must release the pin, not leak it until engine destruction. run()
  // returns only once the dropped connection has been torn down.
  ::close(sv[1]);
  loop.stop();
  loop_thread.join();
  EXPECT_EQ(api::PrecomputeCache::global().stats().pinned, base_pinned);
  const Json stats =
      Json::parse(engine.handle(R"({"id":"s","method":"stats"})"));
  EXPECT_EQ(stats.find("result")
                ->find("engine")
                ->find("sessions_dropped")
                ->as_int64("sessions_dropped"),
            1);
}

// ----------------------------------------- epoll transport + bugfix sweep

namespace {

/// Write raw bytes (no framing added), half-close, and read every reply
/// byte until EOF. The no-trailing-newline and over-long-line tests need
/// exact control of the bytes on the wire, which client_round_trip's
/// per-request framing would hide.
std::string raw_round_trip(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::shutdown(fd, SHUT_WR);
  std::string received;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    received.append(buf, static_cast<std::size_t>(r));
  }
  return received;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

}  // namespace

// Bugfix regression: a final request line that arrives without a trailing
// newline at EOF is still a request, on every transport: serve_stream's
// getline serves it, and the event loop's framer must agree.
TEST(ServiceTransport, FinalLineWithoutNewlineAtEofIsServedOnAllTransports) {
  const std::string req = R"({"id":"last","method":"list_solvers"})";
  Engine reference;
  const std::string want = reference.handle(req) + "\n";

  {  // stdio (stream) transport
    Engine engine;
    std::istringstream in(req);  // EOF lands before any newline
    std::ostringstream out;
    serve_stream(engine, in, out);
    EXPECT_EQ(out.str(), want);
  }
  {  // TCP (epoll event loop) transport
    Engine engine;
    TcpServer server(engine, 0);
    std::thread server_thread([&] { server.run(); });
    const int fd = connect_loopback(server.port());
    const std::string received = raw_round_trip(fd, req);
    ::close(fd);
    server.stop();
    server_thread.join();
    EXPECT_EQ(received, want);
  }
}

// The event loop searches only each read's new bytes for a newline. Lines
// that span many reads, end on or beside a 4 KiB read boundary, or share a
// read with other lines are framed exactly as serve_stream frames them.
TEST(ServiceTransport, LinesSpanningManyReadsAreFramedLikeTheStream) {
  std::string bytes;
  for (const std::size_t pad : {0, 1, 4094, 4095, 4096, 4097, 300000}) {
    bytes.append(pad, ' ');  // JSON whitespace before the request
    bytes += R"({"id":)" + std::to_string(pad) +
             R"(,"method":"list_solvers"})" "\n";
  }
  bytes += R"({"id":"tail","method":"list_solvers"})";  // EOF, no newline
  Engine::Config cfg;
  cfg.workers = 1;  // replies in request order on both transports
  std::ostringstream want;
  {
    Engine engine(cfg);
    std::istringstream in(bytes);
    serve_stream(engine, in, want);
  }
  Engine engine(cfg);
  TcpServer server(engine, 0);
  std::thread server_thread([&] { server.run(); });
  const int fd = connect_loopback(server.port());
  const std::string received = raw_round_trip(fd, bytes);
  ::close(fd);
  server.stop();
  server_thread.join();
  EXPECT_EQ(std::count(received.begin(), received.end(), '\n'), 8);
  EXPECT_EQ(received, want.str());
}

// Bugfix regression: a complete over-long line inside one read chunk must
// be rejected at the transport — the residual-buffer check used to miss it
// and hand it to the engine. The typed parse_error + abandon behavior
// applies, and the pipelined valid request after it is never served.
TEST(ServiceTransport, CompleteOverlongLineInOneChunkIsRejectedAtTransport) {
  std::string bytes(1024, 'x');
  bytes += "\n";  // complete, newline-framed, over the 256-byte cap
  bytes += R"({"id":"after","method":"list_solvers"})" "\n";

  Engine::Config cfg;
  cfg.max_line_bytes = 256;
  Engine engine(cfg);
  TcpServer server(engine, 0);
  std::thread server_thread([&] { server.run(); });
  const int fd = connect_loopback(server.port());
  const std::string received = raw_round_trip(fd, bytes);
  ::close(fd);
  server.stop();
  server_thread.join();
  // Exactly one reply — the typed error — then the abandoned connection
  // closes; the request behind the over-long line is never answered.
  ASSERT_NE(received.find('\n'), std::string::npos);
  EXPECT_EQ(received.find('\n'), received.size() - 1);
  const Json resp = Json::parse(received.substr(0, received.find('\n')));
  EXPECT_FALSE(resp.find("ok")->as_bool("ok"));
  EXPECT_EQ(resp.find("error")->find("code")->as_string("code"),
            error_code::kParseError);
  // The transport rejected it: nothing ever reached the engine.
  EXPECT_EQ(engine.stats().received, 0u);
}

// Bugfix regression: neither a scraper that never reads nor one that
// trickles request bytes forever may wedge the metrics endpoint or the
// wire listener beside it. The endpoint used to run on one accept thread
// whose request drain had a per-read receive timeout, so a peer sending
// one byte per second pinned it and every later scrape hung. Scrape
// connections now live on the TCP event loop and close at a total
// deadline counted from accept.
TEST(ServiceMetrics, StalledScraperDoesNotWedgeEndpoint) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  Engine engine;
  TcpServer server(engine, 0);
  const std::uint16_t metrics_port = server.listen_metrics(0);
  // Every read below is bounded, so a wedged endpoint fails the test
  // instead of hanging it.
  const auto read_all = [](int fd, int timeout_s, bool* eof) {
    const timeval tv{timeout_s, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::string out;
    char buf[65536];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof buf);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) {
        *eof = r == 0 || errno == ECONNRESET;
        return out;
      }
      out.append(buf, static_cast<std::size_t>(r));
    }
  };

  // The never-reading peer: tiny receive window, connects, never reads.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  const int rcv = 4096;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof rcv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(metrics_port);
  ASSERT_EQ(
      ::connect(stalled, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // The trickling peer: one request byte per second, never closes. Both
  // peers queue on the listen backlog until the loop starts.
  const int trickler = connect_loopback(metrics_port);
  const auto trickle_start = steady_clock::now();
  std::thread server_thread([&] { server.run(); });
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    while (!done.load()) {
      // Fails with EPIPE once the server has closed us; keep trickling.
      (void)::send(trickler, "G", 1, MSG_NOSIGNAL);
      for (int i = 0; i < 20 && !done.load(); ++i) {
        std::this_thread::sleep_for(milliseconds(50));
      }
    }
  });
  std::this_thread::sleep_for(milliseconds(200));  // both peers accepted

  // A live scrape still completes promptly with both peers connected.
  const auto t0 = steady_clock::now();
  const int fd = connect_loopback(metrics_port);
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  // Threads are live from here on: EXPECT, never ASSERT, so a failure
  // still reaches the joins below.
  EXPECT_EQ(::write(fd, get.data(), get.size()),
            static_cast<ssize_t>(get.size()));
  bool eof = false;
  const std::string response = read_all(fd, 5, &eof);
  const auto elapsed = steady_clock::now() - t0;
  ::close(fd);
  EXPECT_TRUE(eof) << "the scrape reply is close-delimited";
  EXPECT_LT(elapsed, std::chrono::seconds(3));
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  const std::size_t head_end = response.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos);
  const std::string body =
      head_end == std::string::npos ? "" : response.substr(head_end + 4);
  EXPECT_NE(response.find("Content-Length: " + std::to_string(body.size()) +
                          "\r\n"),
            std::string::npos);
  EXPECT_NE(body.find("suu_build_info"), std::string::npos);

  // Wire requests on the same server keep getting answered meanwhile.
  const int wire = connect_loopback(server.port());
  const timeval wire_tv{3, 0};
  ::setsockopt(wire, SOL_SOCKET, SO_RCVTIMEO, &wire_tv, sizeof wire_tv);
  for (int i = 0; i < 3; ++i) {
    const std::string req = R"({"id":)" + std::to_string(i) +
                            R"(,"method":"list_solvers"})" "\n";
    EXPECT_EQ(::write(wire, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    std::string line;
    char c = 0;
    while (::read(wire, &c, 1) == 1 && c != '\n') line.push_back(c);
    if (line.empty()) {
      ADD_FAILURE() << "wire request " << i << " not answered";
      break;
    }
    EXPECT_TRUE(Json::parse(line).find("ok")->as_bool("ok"));
  }
  ::close(wire);

  // The trickler gets its reply (then EOF: the server half-closes once the
  // reply is out) and is closed at the scrape deadline — a total bound its
  // steady bytes do not extend. A byte sent to a closed socket draws a
  // reset, so probing with sends detects the close.
  eof = false;
  const std::string trickled = read_all(trickler, 5, &eof);
  EXPECT_TRUE(eof);
  EXPECT_EQ(trickled.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  bool closed = false;
  while (!closed &&
         steady_clock::now() - trickle_start < std::chrono::seconds(10)) {
    closed = ::send(trickler, "G", 1, MSG_NOSIGNAL) < 0;
    std::this_thread::sleep_for(milliseconds(50));
  }
  const auto trickler_life = steady_clock::now() - trickle_start;
  EXPECT_TRUE(closed) << "the server must close a trickling scraper";
  EXPECT_GE(trickler_life, milliseconds(EventLoop::kScrapeDeadlineMs));
  EXPECT_LT(trickler_life,
            milliseconds(EventLoop::kScrapeDeadlineMs + 3000));

  done = true;
  trickle.join();
  server.stop();
  server_thread.join();
  ::close(trickler);
  ::close(stalled);
}

// A client that drops mid-{"stream":true} stops the remaining shard
// computation — not just its output. The loop's peer-death detection sets
// the connection's CancelToken; the engine's shard loop checks it.
TEST(ServiceTransport, ClientDropMidStreamCancelsRemainingShards) {
  Engine::Config cfg;
  cfg.workers = 1;  // shards compute serially: the cancel lands between them
  Engine engine(cfg);
  TcpServer server(engine, 0);
  std::thread server_thread([&] { server.run(); });
  const int fd = connect_loopback(server.port());

  const std::string text = quoted(payload(independent_instance(8, 3, 21)));
  const std::string req =
      R"({"id":"st","method":"estimate","params":{"instance":)" + text +
      R"(,"replications":80000,"seed":7,"stream":true,"shards":8}})" "\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));

  // Read the first shard envelope, then die hard: SO_LINGER(0) turns the
  // close into a RST, which the loop sees as peer death.
  std::string first;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') first.push_back(c);
  const Json envelope = Json::parse(first);
  EXPECT_EQ(envelope.find("seq")->as_int64("seq"), 0);
  const linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(fd);

  engine.drain();  // the cancelled stream finishes (early) before asserting
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.streams_cancelled, 1u);
  EXPECT_GE(s.shards, 1u);
  EXPECT_LT(s.shards, 8u) << "remaining shards must not be computed";
  EXPECT_NE(engine.metrics_text().find("suu_engine_streams_cancelled_total 1"),
            std::string::npos);

  server.stop();
  server_thread.join();
}

// Backpressure: a connection whose queued-but-unwritten reply bytes exceed
// max_outbound_bytes is a slow reader — disconnected and counted, never
// buffered without bound.
TEST(ServiceTransport, SlowReaderExceedingOutboundBoundIsDropped) {
  Engine::Config cfg;
  cfg.workers = 2;
  Engine engine(cfg);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  EventLoop::Options opt;
  opt.max_line_bytes = engine.config().max_line_bytes;
  opt.max_outbound_bytes = 2048;  // tiny bound; one samples reply blows it
  EventLoop loop(engine, opt);
  loop.add_connection(sv[0]);
  std::thread loop_thread([&] { loop.run(); });

  // Each reply carries 2000 raw makespan samples (17-digit doubles): tens
  // of kilobytes against a 2 KiB bound. The client never reads.
  const std::string text = quoted(payload(independent_instance(5, 2, 33)));
  std::string batch;
  for (int i = 0; i < 2; ++i) {
    batch += R"({"id":)" + std::to_string(i) +
             R"(,"method":"estimate","params":{"instance":)" + text +
             R"(,"replications":2000,"shards":1,"shard":0,"samples":true}})"
             "\n";
  }
  ASSERT_EQ(::write(sv[1], batch.data(), batch.size()),
            static_cast<ssize_t>(batch.size()));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine.stats().slow_reader_drops == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(engine.stats().slow_reader_drops, 1u);

  loop.stop();
  loop_thread.join();
  ::close(sv[1]);
  engine.drain();
  EXPECT_NE(engine.metrics_text().find("suu_engine_slow_reader_drops_total 1"),
            std::string::npos);
}

// The idle timeout lives on the event loop's timer queue: after one
// answered request a silent TCP peer is hung up on by the server itself
// (the peer never half-closes), without any per-connection poll() thread.
TEST(ServiceTransport, TcpIdleTimeoutClosesSilentConnection) {
  Engine::Config cfg;
  cfg.idle_timeout_ms = 50;
  Engine engine(cfg);
  TcpServer server(engine, 0);
  std::thread server_thread([&] { server.run(); });
  const int fd = connect_loopback(server.port());

  const std::string req = R"({"id":1,"method":"list_solvers"})" "\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  const auto t0 = std::chrono::steady_clock::now();
  std::string received;
  char buf[4096];
  for (;;) {  // reply, then EOF once the loop times us out
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    received.append(buf, static_cast<std::size_t>(r));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ::close(fd);
  server.stop();
  server_thread.join();
  EXPECT_TRUE(Json::parse(received.substr(0, received.find('\n')))
                  .find("ok")
                  ->as_bool("ok"));
  EXPECT_GE(elapsed, std::chrono::milliseconds(40));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

// Multiplexing burn-in: many concurrent connections through one epoll
// loop, every reply byte-identical to the synchronous engine path.
TEST(ServiceTransport, TcpManyConcurrentConnectionsAreByteDeterministic) {
  constexpr int kConns = 50;
  Engine::Config cfg;
  cfg.queue_capacity = 1024;  // the burst must never hit admission control
  Engine engine(cfg);
  TcpServer server(engine, 0);
  std::thread server_thread([&] { server.run(); });

  const std::string inst = quoted(payload(independent_instance(5, 2, 9)));
  std::vector<std::vector<std::string>> requests(kConns);
  std::vector<std::map<std::string, std::string>> expected(kConns);
  Engine reference;
  for (int c = 0; c < kConns; ++c) {
    const std::string tag = "c" + std::to_string(c);
    requests[c] = {
        R"({"id":")" + tag +
            R"(-est","method":"estimate","params":{"instance":)" + inst +
            R"(,"replications":25,"seed":)" + std::to_string(c + 1) + "}}",
        R"({"id":")" + tag + R"(-ls","method":"list_solvers"})",
    };
    for (const std::string& req : requests[c]) {
      const Json parsed = Json::parse(req);
      const std::string key = parsed.find("id")->as_string("id");
      expected[c][key] = reference.handle(req);
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_loopback(server.port());
      const auto by_id = client_round_trip(fd, requests[c]);
      ::close(fd);
      if (by_id.size() != expected[c].size()) {
        mismatches.fetch_add(1);
        return;
      }
      for (const auto& [key, want] : expected[c]) {
        const auto it = by_id.find(key);
        if (it == by_id.end() || it->second != want) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  server_thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace suu::service
