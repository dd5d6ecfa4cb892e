// libFuzzer target for core::read_instance under hostile bytes.
//
// Built two ways (see CMakeLists.txt):
//  - SUU_FUZZ=ON (clang): linked against libFuzzer (-fsanitize=fuzzer) for
//    coverage-guided exploration; seed corpus in tests/corpus/io.
//  - otherwise: linked with tests/corpus_driver_main.cpp into fuzz_io_replay,
//    which replays the checked-in corpus on every ctest run (including the
//    ASan+UBSan CI matrix entry), so corpus regressions never need clang.
//
// The contract being fuzzed (hardened in the suu::serve PR): malformed or
// hostile input raises core::ParseError — never any other exception, never
// an assert/abort, never an allocation beyond ReadLimits — and any ACCEPTED
// instance round-trips through write_instance to an equal-fingerprint
// re-parse.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/instance.hpp"
#include "core/io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::istringstream is(text);
  // Tight limits keep the fuzzer fast and prove the pre-allocation caps
  // actually gate: a header like "16777215 16777215" must die here, cheaply.
  suu::core::ReadLimits limits;
  limits.max_jobs = 128;
  limits.max_machines = 128;
  limits.max_cells = 4096;
  limits.max_edges = 512;
  std::ostringstream os;
  std::uint64_t fingerprint = 0;
  try {
    const suu::core::Instance inst = suu::core::read_instance(is, limits);
    suu::core::write_instance(os, inst);
    fingerprint = inst.fingerprint();
  } catch (const suu::core::ParseError&) {
    // The typed rejection path — the only acceptable failure mode.
    return 0;
  }
  // An accepted instance's own text must parse back, to the same
  // fingerprint: a ParseError here is a serialization bug, not a rejection.
  std::istringstream is2(os.str());
  try {
    const suu::core::Instance again = suu::core::read_instance(is2, limits);
    if (again.fingerprint() != fingerprint) __builtin_trap();
  } catch (const suu::core::ParseError&) {
    __builtin_trap();
  }
  return 0;
}
