// Effective-cores probe: how much parallelism the host delivers right now.
//
// Times one thread doing W units of integer work, then P threads doing W/P
// each, and prints t1 / tP (P when the host gives P real cores, about 1 when
// it gives one). Each side takes the best of five tries. Run it next to a
// scaling measurement so the measurement carries its own stamp.
//
// Build: g++ -std=c++20 -O2 -pthread effective_cores.cpp -o effective_cores
// Run:   ./effective_cores [P]   (default 4)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace {

std::uint64_t spin(std::uint64_t units) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < units; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double run(unsigned threads, std::uint64_t units) {
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::uint64_t> sink(threads);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < threads; ++i) {
      ts.emplace_back([&sink, i, threads, units] {
        sink[i] = spin(units / threads);
      });
    }
    for (auto& t : ts) t.join();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (sink[0] == 42) std::puts("");  // keep the work observable
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned p = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  if (p < 1 || p > 64) {
    std::fprintf(stderr, "usage: effective_cores [P in 1..64]\n");
    return 2;
  }
  const std::uint64_t units = 200'000'000ULL;
  const double t1 = run(1, units);
  const double tp = run(p, units);
  std::printf("effective_cores %.2f (P=%u, t1 %.3f s, tP %.3f s)\n", t1 / tp,
              p, t1, tp);
  return 0;
}
