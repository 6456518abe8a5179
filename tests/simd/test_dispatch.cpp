// Backend probing, SX4NCAR_SIMD parsing, and forcing semantics.

#include "simd/simd.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <string>

namespace {

using ncar::simd::Backend;
namespace simd = ncar::simd;

// Restores the active backend on scope exit so forcing tests do not leak
// into the rest of the suite.
class BackendGuard {
public:
  BackendGuard() : before_(simd::active()) {}
  ~BackendGuard() { simd::set_backend(before_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

private:
  Backend before_;
};

TEST(SimdDispatch, NamesRoundTrip) {
  // Every backend name parses back to its backend; forcing one this host
  // cannot run clamps to the best supported one instead.
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    EXPECT_EQ(simd::backend_from_env(simd::to_string(b)),
              simd::supported(b) ? b : simd::best_supported())
        << simd::to_string(b);
  }
}

TEST(SimdDispatch, AutoSelectsBestSupported) {
  EXPECT_EQ(simd::backend_from_env("auto"), simd::best_supported());
}

TEST(SimdDispatch, UnknownNamesAreRejected) {
  for (const char* bad : {"neon", "bogus", "AVX2", "avx2 ", "sse4.2"}) {
    try {
      simd::backend_from_env(bad);
      ADD_FAILURE() << "accepted SX4NCAR_SIMD=" << bad;
    } catch (const ncar::config_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("SX4NCAR_SIMD=") + bad +
                    ": expected scalar|sse42|avx2|avx512|auto");
    }
  }
}

TEST(SimdDispatch, EnvParseFallsBackToBestSupported) {
  // Unset, empty and "auto" all mean the best supported backend.
  EXPECT_EQ(simd::backend_from_env(nullptr), simd::best_supported());
  EXPECT_EQ(simd::backend_from_env(""), simd::best_supported());
  EXPECT_EQ(simd::backend_from_env("auto"), simd::best_supported());
  EXPECT_EQ(simd::backend_from_env("scalar"), Backend::Scalar);
}

TEST(SimdDispatch, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(simd::supported(Backend::Scalar));
  EXPECT_TRUE(simd::supported(simd::best_supported()));
}

TEST(SimdDispatch, ForcingScalarTakesEffectAndRestores) {
  BackendGuard guard;
  EXPECT_EQ(simd::set_backend(Backend::Scalar), Backend::Scalar);
  EXPECT_EQ(simd::active(), Backend::Scalar);
  // The active table is exactly the scalar reference table.
  EXPECT_EQ(&simd::table(), &simd::scalar_table());
}

TEST(SimdDispatch, ForcingEverySupportedBackendSticks) {
  BackendGuard guard;
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    const Backend got = simd::set_backend(b);
    if (simd::supported(b)) {
      EXPECT_EQ(got, b) << simd::to_string(b);
      EXPECT_EQ(simd::active(), b);
      EXPECT_EQ(&simd::table(), &simd::table_for(b));
    } else {
      // Unsupported requests clamp to the best supported backend.
      EXPECT_EQ(got, simd::best_supported()) << simd::to_string(b);
    }
  }
}

TEST(SimdDispatch, TableForUnsupportedBackendIsScalar) {
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::supported(b)) {
      EXPECT_EQ(&simd::table_for(b), &simd::scalar_table())
          << simd::to_string(b);
    }
  }
}

TEST(SimdDispatch, EveryTablePointerIsNonNull) {
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const simd::KernelTable& kt = simd::table_for(static_cast<Backend>(i));
    EXPECT_NE(kt.copy_d, nullptr);
    EXPECT_NE(kt.gather_d, nullptr);
    EXPECT_NE(kt.strided_copy_d, nullptr);
    EXPECT_NE(kt.add_d, nullptr);
    EXPECT_NE(kt.scale2_d, nullptr);
    EXPECT_NE(kt.radabs_pair_d, nullptr);
    EXPECT_NE(kt.mom_row_d, nullptr);
    EXPECT_NE(kt.mix_unstable_d, nullptr);
    EXPECT_NE(kt.pop_eta_d, nullptr);
    EXPECT_NE(kt.pop_momentum_d, nullptr);
    EXPECT_NE(kt.pop_tracer_d, nullptr);
    EXPECT_NE(kt.fft_combine2, nullptr);
    EXPECT_NE(kt.fft_combine3, nullptr);
    EXPECT_NE(kt.fft_combine5, nullptr);
    EXPECT_NE(kt.axpy_cd_r, nullptr);
    EXPECT_NE(kt.dot_cd_r, nullptr);
    EXPECT_NE(kt.dot2_cd_r, nullptr);
  }
}

}  // namespace
