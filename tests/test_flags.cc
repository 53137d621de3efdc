// Tests for util::Flags, the shared --key value parser behind msampctl.
// Exercises the parse rules directly (the CLI tests in tools/ only see
// the exit-2 behavior the front end layers on top of UsageError).
#include "util/flags.h"

#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace msamp::util {
namespace {

/// Builds a Flags from a brace-list of tokens, prefixed by two dummy
/// tokens ("prog", "cmd") so `first = 2` mirrors the msampctl call site.
Flags parse(std::vector<std::string> tokens, std::vector<std::string> known,
            bool allow_positionals = false) {
  std::vector<std::string> storage = {"prog", "cmd"};
  storage.insert(storage.end(), tokens.begin(), tokens.end());
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 2, std::move(known),
               allow_positionals);
}

TEST(Flags, ParsesKeyValuePairs) {
  const Flags f = parse({"--out", "x.bin", "--hours", "6"}, {"out", "hours"});
  EXPECT_TRUE(f.has("out"));
  EXPECT_TRUE(f.has("hours"));
  EXPECT_FALSE(f.has("seed"));
  EXPECT_EQ(f.str("out", "default"), "x.bin");
  EXPECT_EQ(f.num("hours", 24), 6);
}

TEST(Flags, AbsentFlagsKeepFallbacks) {
  const Flags f = parse({}, {"out", "hours", "rate", "shard"});
  EXPECT_EQ(f.str("out", "dataset.bin"), "dataset.bin");
  EXPECT_EQ(f.num("hours", 24), 24);
  EXPECT_DOUBLE_EQ(f.real("rate", 12.5), 12.5);
  const auto shard = f.index_count("shard", {0, 1});
  EXPECT_EQ(shard.first, 0);
  EXPECT_EQ(shard.second, 1);
}

TEST(Flags, LaterDuplicateWins) {
  const Flags f = parse({"--hours", "6", "--hours", "12"}, {"hours"});
  EXPECT_EQ(f.num("hours", 24), 12);
}

TEST(Flags, RejectsUnknownFlag) {
  EXPECT_THROW(parse({"--bogus", "1"}, {"hours"}), UsageError);
}

TEST(Flags, RejectsTrailingFlagWithoutValue) {
  EXPECT_THROW(parse({"--hours"}, {"hours"}), UsageError);
}

TEST(Flags, RejectsPositionalsUnlessAllowed) {
  EXPECT_THROW(parse({"stray"}, {"hours"}), UsageError);
  const Flags f = parse({"a.bin", "--out", "m.bin", "b.bin"}, {"out"},
                        /*allow_positionals=*/true);
  ASSERT_EQ(f.positionals().size(), 2u);
  EXPECT_EQ(f.positionals()[0], "a.bin");
  EXPECT_EQ(f.positionals()[1], "b.bin");
  EXPECT_EQ(f.str("out", ""), "m.bin");
}

TEST(Flags, NumRejectsNonIntegers) {
  for (const char* bad : {"abc", "12x", "1.5", ""}) {
    const Flags f = parse({"--hours", bad}, {"hours"});
    EXPECT_THROW(f.num("hours", 24), UsageError) << bad;
  }
}

TEST(Flags, RealParsesAndRejects) {
  const Flags f = parse({"--rate", "3.25"}, {"rate"});
  EXPECT_DOUBLE_EQ(f.real("rate", 0.0), 3.25);
  for (const char* bad : {"abc", "3.25x", ""}) {
    const Flags g = parse({"--rate", bad}, {"rate"});
    EXPECT_THROW(g.real("rate", 0.0), UsageError) << bad;
  }
}

TEST(Flags, RangedNumHoldsInclusiveBounds) {
  for (const char* ok : {"0", "7", "65535"}) {
    const Flags f = parse({"--servers", ok}, {"servers"});
    EXPECT_EQ(f.num("servers", 92, 0, 65535), std::stol(ok)) << ok;
  }
  for (const char* bad : {"-1", "65536", "9223372036854775807", "x"}) {
    const Flags f = parse({"--servers", bad}, {"servers"});
    EXPECT_THROW(f.num("servers", 92, 0, 65535), UsageError) << bad;
  }
  // An absent flag yields its fallback unchecked (-1 = "no filter").
  EXPECT_EQ(parse({}, {"hour"}).num("hour", -1, 0, 255), -1);
}

TEST(Flags, RangedRealRejectsNonFiniteAndOutOfRange) {
  const Flags f = parse({"--fault-rate", "1"}, {"fault-rate"});
  EXPECT_DOUBLE_EQ(f.real("fault-rate", 0.0, 0.0, 1.0), 1.0);
  for (const char* bad :
       {"nan", "-nan", "inf", "-inf", "infinity", "1.0000001", "-0.5", "5"}) {
    const Flags g = parse({"--fault-rate", bad}, {"fault-rate"});
    EXPECT_THROW(g.real("fault-rate", 0.0, 0.0, 1.0), UsageError) << bad;
  }
  // A lower bound alone still keeps infinity out.
  const Flags h = parse({"--gbps", "inf"}, {"gbps"});
  EXPECT_THROW(h.real("gbps", 12.5, 1e-9, std::numeric_limits<double>::max()),
               UsageError);
  EXPECT_DOUBLE_EQ(parse({}, {"gbps"}).real("gbps", 12.5, 1e-9, 100.0), 12.5);
}

TEST(Flags, ChoiceReturnsTheIndexAndListsTheOptions) {
  const std::vector<std::string_view> whats = {"summary", "windows", "bursts"};
  EXPECT_EQ(parse({"--what", "bursts"}, {"what"}).choice("what", whats, 0), 2);
  EXPECT_EQ(parse({}, {"what"}).choice("what", whats, -1), -1);
  for (const char* bad : {"Bursts", "", "burst", "summary,windows"}) {
    const Flags f = parse({"--what", bad}, {"what"});
    try {
      (void)f.choice("what", whats, 0);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("summary|windows|bursts"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Flags, IndexCountParsesShardPairs) {
  const Flags f = parse({"--shard", "2/5"}, {"shard"});
  const auto shard = f.index_count("shard", {0, 1});
  EXPECT_EQ(shard.first, 2);
  EXPECT_EQ(shard.second, 5);
}

TEST(Flags, IndexCountRejectsMalformedPairs) {
  // No slash, empty halves, non-numeric halves, index out of range.
  for (const char* bad : {"3", "/3", "2/", "a/3", "2/b", "2/3/4", "3/3",
                          "4/3", "-1/3", "0/0"}) {
    const Flags f = parse({"--shard", bad}, {"shard"});
    EXPECT_THROW(f.index_count("shard", {0, 1}), UsageError) << bad;
  }
}

}  // namespace
}  // namespace msamp::util
