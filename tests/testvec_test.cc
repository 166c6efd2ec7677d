// Unit tests for the corpus helpers: hex spelling of wire blobs and
// vector-file loading (src/testvec/testvec.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/testvec/testvec.h"
#include "src/util/json.h"

namespace prospector {
namespace testvec {
namespace {

TEST(HexTest, RoundTripsAndRejects) {
  const std::vector<uint8_t> bytes = {0x00, 0x01, 0x7f, 0x80, 0xff};
  EXPECT_EQ(BytesToHex(bytes), "00017f80ff");
  auto back = HexToBytes("00017f80ff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
  EXPECT_TRUE(HexToBytes("").ok());
  EXPECT_FALSE(HexToBytes("abc").ok());   // odd length
  EXPECT_FALSE(HexToBytes("zz").ok());    // non-hex digits
  EXPECT_FALSE(HexToBytes("0 1").ok());
}

TEST(VectorFileTest, MissingCorpusFailsLoudly) {
  auto files = ListVectorFiles("/nonexistent/spec/dir");
  EXPECT_FALSE(files.ok());
  EXPECT_EQ(files.status().code(), StatusCode::kNotFound);
}

TEST(VectorFileTest, EnvelopeValidation) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/good_vec.json";
  ASSERT_TRUE(
      util::WriteFile(
          good, R"({"module": "m", "cases": [{"name": "a", "kind": "k"}]})")
          .ok());
  EXPECT_TRUE(LoadVectorFile(good).ok());

  const std::string bad = dir + "/bad_vec.json";
  ASSERT_TRUE(util::WriteFile(bad, R"({"cases": []})").ok());
  EXPECT_FALSE(LoadVectorFile(bad).ok());  // no module
  ASSERT_TRUE(
      util::WriteFile(bad, R"({"module": "m", "cases": [{"name": "a"}]})")
          .ok());
  EXPECT_FALSE(LoadVectorFile(bad).ok());  // case lacks kind
}

TEST(VectorFileTest, SpecDirEnvOverrides) {
  EXPECT_EQ(SpecDirOrDefault("fallback"), "fallback");
}

}  // namespace
}  // namespace testvec
}  // namespace prospector
