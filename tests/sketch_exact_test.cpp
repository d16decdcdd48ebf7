// extract_sketch ranks integer g2 = gx^2 + gy^2 and computes hypot only
// for the pixels of the threshold's g2 class. These tests hold it to the
// double/hypot extractor it replaced, edge map for edge map, including
// images whose rank threshold falls inside a class of (gx, gy) pairs that
// share g2 but not their hypot.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "collabqos/media/image.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/util/rng.hpp"
#include "support/legacy_sketch.hpp"

namespace collabqos::media {
namespace {

/// The new extractor's edge map, read back through render_sketch.
std::vector<std::uint8_t> edges_of(const Image& image, SketchParams params) {
  const Sketch sketch = extract_sketch(image, "x", params);
  auto rendered = render_sketch(sketch);
  EXPECT_TRUE(rendered.ok());
  std::vector<std::uint8_t> edges = rendered.value().pixels();
  for (auto& e : edges) e = e != 0 ? 1 : 0;
  return edges;
}

void expect_matches_oracle(const Image& image, SketchParams params) {
  EXPECT_EQ(edges_of(image, params), legacy::sketch_edges(image, params))
      << image.width() << "x" << image.height() << "x" << image.channels()
      << " decimation " << params.decimation << " quantile "
      << params.threshold_quantile;
}

std::vector<SketchParams> parameter_grid() {
  std::vector<SketchParams> grid;
  for (const int decimation : {1, 2, 4}) {
    for (const double q : {0.0, 0.5, 0.92, 0.99, 1.0}) {
      SketchParams p;
      p.decimation = decimation;
      p.threshold_quantile = q;
      grid.push_back(p);
    }
  }
  return grid;
}

TEST(SketchExact, MatchesOracleOnGoldenScenes) {
  const Image scenes[] = {
      render_scene(make_crisis_scene(256, 256, 1), 1),
      render_scene(make_crisis_scene(256, 256, 3), 1),
      render_scene(make_crisis_scene(512, 512, 1)),
      render_scene(make_crisis_scene(512, 512, 3)),
      render_scene(make_medical_scene(128, 96)),
  };
  for (const Image& image : scenes) {
    for (const SketchParams& p : parameter_grid()) expect_matches_oracle(image, p);
  }
}

TEST(SketchExact, MatchesOracleOnDegenerateImages) {
  Image flat(9, 7, 1);  // every g2 is 0: threshold 1.0, no edges
  Image line(1, 40, 3);
  Image noise(23, 17, 1);
  Rng rng(5);
  for (auto& p : noise.pixels()) p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (const Image* image : {&flat, &line, &noise}) {
    for (const SketchParams& p : parameter_grid()) expect_matches_oracle(*image, p);
  }
}

TEST(SketchExact, HypotRisesStrictlyAcrossDistinctG2) {
  // Exhaustive over the Sobel range |gx|, |gy| <= 1020: every pair of a
  // smaller g2 has a smaller hypot than every pair of a larger g2. That is
  // what lets the rank be taken on integers. Within one g2, hypot may
  // differ in the last bit (1,472 such classes on glibc 2.36), hence the
  // tie rule.
  constexpr int kMax = 1020;
  constexpr int kClasses = 2 * kMax * kMax + 1;
  std::vector<double> lowest(kClasses, INFINITY);
  std::vector<double> highest(kClasses, -INFINITY);
  for (int gx = -kMax; gx <= kMax; ++gx) {
    for (int gy = -kMax; gy <= kMax; ++gy) {
      const int g2 = gx * gx + gy * gy;
      const double m = std::hypot(static_cast<double>(gx), static_cast<double>(gy));
      lowest[g2] = std::min(lowest[g2], m);
      highest[g2] = std::max(highest[g2], m);
    }
  }
  double previous = -1.0;
  int previous_g2 = -1;
  for (int g2 = 0; g2 < kClasses; ++g2) {
    if (std::isinf(lowest[g2])) continue;  // not a sum of two squares
    ASSERT_LT(previous, lowest[g2]) << "g2 " << previous_g2 << " vs " << g2;
    previous = highest[g2];
    previous_g2 = g2;
  }
}

/// Two (gx, gy) pairs, both even and inside what a 3x3 patch can produce
/// below, with one g2 but different hypot values.
std::pair<std::pair<int, int>, std::pair<int, int>> split_tie_class() {
  std::map<int, std::pair<int, int>> first_of_class;
  for (int gx = 0; gx <= 510; gx += 2) {
    for (int gy = 0; gy <= 1020; gy += 2) {
      const int g2 = gx * gx + gy * gy;
      const auto [it, inserted] = first_of_class.try_emplace(g2, gx, gy);
      if (!inserted &&
          std::hypot(double(gx), double(gy)) !=
              std::hypot(double(it->second.first), double(it->second.second))) {
        return {it->second, {gx, gy}};
      }
    }
  }
  return {};
}

/// Write a 3x3 patch centred on (cx, cy) whose Sobel gradient is (gx, gy):
/// top row 0, side columns differ by gx/2, bottom corners and centre sum
/// to gy/2.
void paint_gradient(Image& image, int cx, int cy, int gx, int gy) {
  for (int dx = -1; dx <= 1; ++dx) image.set(cx + dx, cy - 1, 0, 0);
  image.set(cx - 1, cy, 0, 0);
  image.set(cx, cy, 0, 0);
  image.set(cx + 1, cy, 0, static_cast<std::uint8_t>(gx / 2));
  const int half = gy / 2;
  const int corner = std::min(255, half / 2);
  image.set(cx - 1, cy + 1, 0, static_cast<std::uint8_t>(corner));
  image.set(cx + 1, cy + 1, 0, static_cast<std::uint8_t>(corner));
  image.set(cx, cy + 1, 0, static_cast<std::uint8_t>(half - corner));
}

int sobel_g2(const Image& image, int x, int y) {
  const auto p = [&](int dx, int dy) { return int{image.at(x + dx, y + dy)}; };
  const int gx = (p(1, -1) + 2 * p(1, 0) + p(1, 1)) - (p(-1, -1) + 2 * p(-1, 0) + p(-1, 1));
  const int gy = (p(-1, 1) + 2 * p(0, 1) + p(1, 1)) - (p(-1, -1) + 2 * p(0, -1) + p(1, -1));
  return gx * gx + gy * gy;
}

TEST(SketchExact, MatchesOracleWhenThresholdFallsInATieClass) {
  const auto [a, b] = split_tie_class();
  ASSERT_NE(a, b) << "no even pair splits a g2 class on this libm";
  // A grid of probes, alternating the two pairs of one class, in 4x4
  // cells so that no patches overlap.
  Image image(96, 96, 1);
  Rng rng(17);
  int probe = 0;
  for (int cy = 2; cy + 2 < 96; cy += 4) {
    for (int cx = 2; cx + 2 < 96; cx += 4) {
      const auto [gx, gy] = (probe++ % 3 == 0) ? a : b;
      paint_gradient(image, cx, cy, gx, gy);
    }
  }
  // Check the probes really produce the class, then put the rank at
  // several places inside it.
  const int target = a.first * a.first + a.second * a.second;
  ASSERT_EQ(sobel_g2(image, 2, 2), target);
  std::size_t below = 0, in_class = 0;
  for (int y = 1; y + 1 < 96; ++y) {
    for (int x = 1; x + 1 < 96; ++x) {
      const int g2 = sobel_g2(image, x, y);
      below += g2 < target ? 1 : 0;
      in_class += g2 == target ? 1 : 0;
    }
  }
  below += 96 * 4 - 4;  // the border pixels, all g2 = 0
  ASSERT_GT(in_class, 100u);
  const double last = 96.0 * 96.0 - 1.0;
  for (const double offset : {0.5, 0.25 * in_class, 0.5 * in_class,
                              0.75 * in_class, in_class - 0.5}) {
    SketchParams p;
    p.decimation = 1;
    p.threshold_quantile = (static_cast<double>(below) + offset) / last;
    expect_matches_oracle(image, p);
    p.decimation = 3;
    expect_matches_oracle(image, p);
  }
}

}  // namespace
}  // namespace collabqos::media
