#include "core/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace suu::core {
namespace {

void expect_same(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  ASSERT_EQ(a.num_machines(), b.num_machines());
  for (int j = 0; j < a.num_jobs(); ++j) {
    for (int i = 0; i < a.num_machines(); ++i) {
      EXPECT_DOUBLE_EQ(a.q(i, j), b.q(i, j)) << i << "," << j;
    }
  }
  ASSERT_EQ(a.dag().num_edges(), b.dag().num_edges());
  for (int v = 0; v < a.num_jobs(); ++v) {
    EXPECT_EQ(a.dag().succs(v), b.dag().succs(v));
  }
}

TEST(InstanceIo, RoundTripIndependent) {
  util::Rng rng(1);
  const Instance inst =
      make_independent(7, 4, MachineModel::uniform(0.2, 0.95), rng);
  std::stringstream ss;
  write_instance(ss, inst);
  const Instance back = read_instance(ss);
  expect_same(inst, back);
}

TEST(InstanceIo, RoundTripChains) {
  util::Rng rng(2);
  const Instance inst =
      make_chains(3, 2, 4, 3, MachineModel::uniform(0.3, 0.9), rng);
  std::stringstream ss;
  write_instance(ss, inst);
  expect_same(inst, read_instance(ss));
}

TEST(InstanceIo, RoundTripForest) {
  util::Rng rng(3);
  const Instance inst =
      make_out_forest(12, 2, 0.2, 3, MachineModel::uniform(0.3, 0.9), rng);
  std::stringstream ss;
  write_instance(ss, inst);
  expect_same(inst, read_instance(ss));
}

TEST(InstanceIo, ExactProbabilityBits) {
  // 17 significant digits round-trip doubles exactly.
  const Instance inst = Instance::independent(
      1, 2, {0.12345678901234567, 1.0 / 3.0});
  std::stringstream ss;
  write_instance(ss, inst);
  const Instance back = read_instance(ss);
  EXPECT_EQ(inst.q(0, 0), back.q(0, 0));
  EXPECT_EQ(inst.q(1, 0), back.q(1, 0));
}

TEST(InstanceIo, CommentsSkipped) {
  std::stringstream ss;
  ss << "# a comment\nsuu-instance v1\n# another\n1 1\n0.5\n0\n";
  const Instance inst = read_instance(ss);
  EXPECT_EQ(inst.num_jobs(), 1);
  EXPECT_DOUBLE_EQ(inst.q(0, 0), 0.5);
}

TEST(InstanceIo, RejectsGarbage) {
  std::stringstream a("not-an-instance 1 1");
  EXPECT_THROW(read_instance(a), util::CheckError);
  std::stringstream b("suu-instance v99\n1 1\n0.5\n0\n");
  EXPECT_THROW(read_instance(b), util::CheckError);
  std::stringstream c("suu-instance v1\n1 1\nabc\n0\n");
  EXPECT_THROW(read_instance(c), util::CheckError);
  std::stringstream d("suu-instance v1\n2 1\n0.5\n");  // truncated
  EXPECT_THROW(read_instance(d), util::CheckError);
}

TEST(InstanceIo, RejectsInvalidInstanceContent) {
  // Probability out of range caught by Instance validation.
  std::stringstream ss("suu-instance v1\n1 1\n1.5\n0\n");
  EXPECT_THROW(read_instance(ss), util::CheckError);
  // Cyclic dag.
  std::stringstream cyc("suu-instance v1\n2 1\n0.5\n0.5\n2\n0 1\n1 0\n");
  EXPECT_THROW(read_instance(cyc), util::CheckError);
}

// The service feeds read_instance untrusted bytes: every malformed shape
// must raise the typed core::ParseError (a CheckError subclass, so legacy
// catch sites still work) — never an assert/abort or unbounded allocation.
TEST(InstanceIo, TypedParseErrors) {
  const auto expect_parse_error = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(read_instance(ss), ParseError) << text;
  };
  expect_parse_error("");                                   // empty stream
  expect_parse_error("suu-instance v1\n0 1\n");             // n < 1
  expect_parse_error("suu-instance v1\n-3 1\n");            // negative n
  expect_parse_error("suu-instance v1\n1 -2\n");            // negative m
  expect_parse_error("suu-instance v1\n99999999999999999999 1\n");  // overflow
  expect_parse_error("suu-instance v1\n1 1\nnan\n0\n");     // NaN probability
  expect_parse_error("suu-instance v1\n1 1\ninf\n0\n");     // inf probability
  expect_parse_error("suu-instance v1\n1 1\n-0.25\n0\n");   // q < 0
  expect_parse_error("suu-instance v1\n1 1\n1.5\n0\n");     // q > 1
  expect_parse_error("suu-instance v1\n1 1\n1\n0\n");       // no capable machine
  expect_parse_error("suu-instance v1\n2 1\n0.5\n0.5\n-1\n");        // edges < 0
  expect_parse_error("suu-instance v1\n2 1\n0.5\n0.5\n1\n0 7\n");    // v >= n
  expect_parse_error("suu-instance v1\n2 1\n0.5\n0.5\n1\n-1 1\n");   // u < 0
  expect_parse_error("suu-instance v1\n2 1\n0.5\n0.5\n1\n0 0\n");    // self-loop
  expect_parse_error("suu-instance v1\n2 1\n0.5\n0.5\n2\n0 1\n0 1\n");  // dup
  expect_parse_error("suu-instance v1\n2 1\n0.5\n0.5\n2\n0 1\n1 0\n");  // cycle
  expect_parse_error("suu-instance v1\n2 1\n0.5\n0.5\n1\n");  // truncated edge
}

TEST(InstanceIo, ReadLimitsBoundAllocations) {
  // A hostile header must be rejected by the n*m product guard before the
  // probability matrix is allocated.
  std::stringstream huge("suu-instance v1\n16777215 16777215\n");
  EXPECT_THROW(read_instance(huge), ParseError);

  ReadLimits tight;
  tight.max_jobs = 4;
  tight.max_machines = 4;
  tight.max_cells = 8;
  tight.max_edges = 2;
  std::stringstream too_many_jobs("suu-instance v1\n5 1\n");
  EXPECT_THROW(read_instance(too_many_jobs, tight), ParseError);
  std::stringstream too_many_cells("suu-instance v1\n4 3\n");
  EXPECT_THROW(read_instance(too_many_cells, tight), ParseError);
  std::stringstream too_many_edges(
      "suu-instance v1\n4 2\n.5 .5\n.5 .5\n.5 .5\n.5 .5\n3\n0 1\n1 2\n2 3\n");
  EXPECT_THROW(read_instance(too_many_edges, tight), ParseError);
  // Within the limits everything still parses.
  std::stringstream ok(
      "suu-instance v1\n4 2\n.5 .5\n.5 .5\n.5 .5\n.5 .5\n2\n0 1\n1 2\n");
  EXPECT_EQ(read_instance(ok, tight).num_jobs(), 4);
}

// What `read` made of its input: the shape, q(0,0) bits and fingerprint
// of an accepted instance, or the ParseError message.
template <class Read>
std::string outcome(Read read) {
  try {
    const Instance inst = read();
    char buf[96];
    std::snprintf(buf, sizeof buf, "accept %dx%d q00=%a fp=0x%016llx",
                  inst.num_jobs(), inst.num_machines(), inst.q(0, 0),
                  static_cast<unsigned long long>(inst.fingerprint()));
    return buf;
  } catch (const ParseError& err) {
    return std::string("reject: ") + err.what();
  }
}

std::string view_outcome(std::string_view text) {
  return outcome([&] { return read_instance(text); });
}

std::string stream_outcome(const std::string& text) {
  std::istringstream is(text);
  return outcome([&] { return read_instance(is); });
}

// The number grammar std::stod / std::stol gave the reader before it moved
// to std::from_chars, token by token: every outcome below is what the
// operator>> + std::stod reader returned on the same bytes.
TEST(InstanceIo, ViewOverloadKeepsTheStodGrammar) {
  struct Case {
    std::string_view text;
    std::string_view outcome;
  };
  const Case cases[] = {
      // Probabilities: a leading '+', hex floats, inf/nan, underflow, a
      // subnormal, -0, trailing junk, leading zeros.
      {"suu-instance v1\n1 2\n+0.5 0.5\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0x477506e321050721"},
      {"suu-instance v1\n1 2\n0x1p-1 0.5\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0x477506e321050721"},
      {"suu-instance v1\n1 2\n0X1.8P-1 0.5\n0\n",
       "accept 1x2 q00=0x1.8p-1 fp=0x9e939c9ef165e32f"},
      {"suu-instance v1\n1 2\n+0x1p-1 0.5\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0x477506e321050721"},
      {"suu-instance v1\n1 2\n-0x1p-1 0.5\n0\n",
       "reject: instance parse error: q(0,0) = -0.5 is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\n0x 0.5\n0\n",
       "reject: instance parse error: bad number '0x' for failure probability"},
      {"suu-instance v1\n1 2\n+-0.5 0.5\n0\n",
       "reject: instance parse error: bad number '+-0.5' for failure probability"},
      {"suu-instance v1\n1 2\ninf 0.5\n0\n",
       "reject: instance parse error: q(0,0) = inf is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\n+inf 0.5\n0\n",
       "reject: instance parse error: q(0,0) = inf is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\n-inf 0.5\n0\n",
       "reject: instance parse error: q(0,0) = -inf is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\nnan 0.5\n0\n",
       "reject: instance parse error: q(0,0) = nan is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\n-nan 0.5\n0\n",
       "reject: instance parse error: q(0,0) = -nan is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\nnan(7) 0.5\n0\n",
       "reject: instance parse error: q(0,0) = nan is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\ninfinity 0.5\n0\n",
       "reject: instance parse error: q(0,0) = inf is not a probability in [0,1]"},
      {"suu-instance v1\n1 2\n1e-400 0.5\n0\n",
       "reject: instance parse error: bad number '1e-400' for failure probability"},
      {"suu-instance v1\n1 2\n4e-320 0.5\n0\n",
       "reject: instance parse error: bad number '4e-320' for failure probability"},
      {"suu-instance v1\n1 2\n0x1p-1074 0.5\n0\n",
       "accept 1x2 q00=0x0.0000000000001p-1022 fp=0xd5b5db030a35f30b"},
      {"suu-instance v1\n1 2\n0e-400 0.5\n0\n",
       "accept 1x2 q00=0x0p+0 fp=0x78c7c5750d014a45"},
      {"suu-instance v1\n1 2\n-0 0.5\n0\n",
       "accept 1x2 q00=-0x0p+0 fp=0x700fc4b56ca82e42"},
      {"suu-instance v1\n1 2\n0.5x 0.5\n0\n",
       "reject: instance parse error: bad number '0.5x' for failure probability"},
      {"suu-instance v1\n1 2\n0.5#x 0.5\n0\n",
       "reject: instance parse error: bad number '0.5#x' for failure probability"},
      {"suu-instance v1\n1 2\n000.5 0.5\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0x477506e321050721"},
      {"suu-instance v1\n1 2\n5e-1 0.5\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0x477506e321050721"},
      {"suu-instance v1\n1 2\n.5 0.5\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0x477506e321050721"},
      {"suu-instance v1\n1 2\n5.e-1 0.5\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0x477506e321050721"},
      {"suu-instance v1\n1 2\n1e 0.5\n0\n",
       "reject: instance parse error: bad number '1e' for failure probability"},
      {"suu-instance v1\n1 2\n0x1p 0.5\n0\n",
       "reject: instance parse error: bad number '0x1p' for failure probability"},
      // Integers (counts and edge ends): a leading '+', -0, leading zeros,
      // hex, a fraction, overflow, trailing junk.
      {"suu-instance v1\n+1 1\n0.5\n0\n",
       "accept 1x1 q00=0x1p-1 fp=0x9f608d42573d7743"},
      {"suu-instance v1\n+-1 1\n0.5\n0\n",
       "reject: instance parse error: bad integer '+-1' for job count"},
      {"suu-instance v1\n-0 1\n0.5\n0\n",
       "reject: instance parse error: job count 0 outside [1, 16777216]"},
      {"suu-instance v1\n01 2\n0.5 0.25\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0xdaed7981d7f891c0"},
      {"suu-instance v1\n2 1\n0.5\n0.5\n001\n0 1\n",
       "accept 2x1 q00=0x1p-1 fp=0x8bb2df1453dd768a"},
      {"suu-instance v1\n0x1 1\n0.5\n0\n",
       "reject: instance parse error: bad integer '0x1' for job count"},
      {"suu-instance v1\n1.0 1\n0.5\n0\n",
       "reject: instance parse error: bad integer '1.0' for job count"},
      {"suu-instance v1\n99999999999999999999 1\n0.5\n0\n",
       "reject: instance parse error: bad integer '99999999999999999999' for job count"},
      {"suu-instance v1\n1e0 1\n0.5\n0\n",
       "reject: instance parse error: bad integer '1e0' for job count"},
      {"suu-instance v1\n2 1\n0.5\n0.5\n+1\n0 +1\n",
       "accept 2x1 q00=0x1p-1 fp=0x8bb2df1453dd768a"},
      {"suu-instance v1\n2 1\n0.5\n0.5\n1\n+0 1\n",
       "accept 2x1 q00=0x1p-1 fp=0x8bb2df1453dd768a"},
      {"suu-instance v1\n2 1\n0.5\n0.5\n-0\n",
       "accept 2x1 q00=0x1p-1 fp=0xd4e39a18f99cca48"},
      {"suu-instance v1\n2 1\n0.5\n0.5\n1\n0 1x\n",
       "reject: instance parse error: bad integer '1x' for edge target"},
      // Separators: tabs, CRLF, '#' in the middle of a line, bytes after
      // the last edge, \v and \f.
      {"suu-instance v1\n1\t2\n0.5\t0.25\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0xdaed7981d7f891c0"},
      {"suu-instance v1\r\n1 2\r\n0.5 0.25\r\n0\r\n",
       "accept 1x2 q00=0x1p-1 fp=0xdaed7981d7f891c0"},
      {"suu-instance v1\n1 2 # jobs, machines\n0.5 # first\n0.25\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0xdaed7981d7f891c0"},
      {"suu-instance v1 # header\n1 2\n0.5 0.25\n0 # no edges",
       "accept 1x2 q00=0x1p-1 fp=0xdaed7981d7f891c0"},
      {"suu-instance v1\n1 2\n0.5 0.25\n0\ntrailing bytes are not read\n",
       "accept 1x2 q00=0x1p-1 fp=0xdaed7981d7f891c0"},
      {"suu-instance\tv1\v1\f2\n0.5 0.25\n0\n",
       "accept 1x2 q00=0x1p-1 fp=0xdaed7981d7f891c0"},
      {"suu-instance v1\n1 2\n#0.5 0.25\n0\n",
       "reject: instance parse error: unexpected end of stream while reading failure probability"},
      {"suu-instance v1\n1 2\n0.5 0.25 # the end",
       "reject: instance parse error: unexpected end of stream while reading edge count"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(view_outcome(c.text), c.outcome) << c.text;
    EXPECT_EQ(stream_outcome(std::string(c.text)), c.outcome) << c.text;
  }
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(InstanceIo, CorpusParsesTheSameThroughBothOverloads) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SUU_IO_CORPUS_DIR)) {
    files.push_back(entry.path());
  }
  ASSERT_GE(files.size(), 14u);
  for (const auto& path : files) {
    const std::string text = file_bytes(path);
    EXPECT_EQ(view_outcome(text), stream_outcome(text)) << path;
  }
}

// Fingerprints of the accepted corpus files, recorded with the
// operator>> + std::stod reader: the new reader parses the same doubles.
TEST(InstanceIo, CorpusFingerprintsPinned) {
  const std::string dir = SUU_IO_CORPUS_DIR;
  const auto fp = [&](const char* name) {
    return read_instance(file_bytes(dir + "/" + name)).fingerprint();
  };
  EXPECT_EQ(fp("valid_comment_and_chain"), 0x0910fed0d30d4aa3ULL);
  EXPECT_EQ(fp("valid_out_tree"), 0xc72280679c4ca647ULL);
  EXPECT_EQ(fp("valid_small"), 0xff5d1e426d12f0fdULL);
}

TEST(InstanceIo, SubnormalProbabilitiesRoundTrip) {
  // The reader accepts an exact subnormal but rejects an inexact one, so
  // the writer emits subnormals as hex floats. Every other value keeps its
  // 17-significant-digit text.
  const std::string text =
      "suu-instance v1\n1 4\n0x1p-1074 0x1p-1030 0.5 2.2250738585072014e-308\n"
      "0\n";
  const Instance inst = read_instance(text);
  std::ostringstream os;
  write_instance(os, inst);
  EXPECT_EQ(os.str(),
            "suu-instance v1\n1 4\n0x0.0000000000001p-1022 0x0.01p-1022 0.5 "
            "2.2250738585072014e-308\n0\n");
  const Instance back = read_instance(os.str());
  expect_same(inst, back);
  EXPECT_EQ(back.fingerprint(), inst.fingerprint());
  // The corpus seed the fuzzer starts from round-trips too.
  const std::string seed =
      file_bytes(std::string(SUU_IO_CORPUS_DIR) + "/subnormal_probability");
  const Instance a = read_instance(seed);
  std::ostringstream again;
  write_instance(again, a);
  EXPECT_EQ(read_instance(again.str()).fingerprint(), a.fingerprint());
}

TEST(InstanceIo, FileRoundTrip) {
  util::Rng rng(4);
  const Instance inst =
      make_independent(5, 3, MachineModel::sparse(0.5, 0.3, 0.9), rng);
  const std::string path = "/tmp/suu_io_test_instance.txt";
  save_instance(path, inst);
  const Instance back = load_instance(path);
  expect_same(inst, back);
  std::remove(path.c_str());
}

TEST(InstanceIo, MissingFileThrows) {
  EXPECT_THROW(load_instance("/nonexistent/dir/x.txt"), util::CheckError);
}

}  // namespace
}  // namespace suu::core
