// R9 fixture: lambdas handed to the scheduling API capturing by
// reference or raw `this`, both directly and through a one-hop wrapper
// (`run_later` calls schedule_at, so calls to it are scheduler calls).
namespace fx {

struct Sim {
  template <typename F> void schedule_at(long when, F&& fn);
  template <typename F> void schedule(F&& fn);
};

template <typename F>
void run_later(Sim& sim, long when, F&& fn) {
  sim.schedule_at(when, static_cast<F&&>(fn));
}

struct Node {
  Sim sim;
  int hits = 0;

  void arm(int& counter) {
    sim.schedule_at(5, [&counter] { ++counter; });
    sim.schedule([this] { ++hits; });
    sim.schedule_at(9, [&] { ++hits; });
  }
};

void cascade(Sim& sim, int& counter) {
  run_later(sim, 3, [&counter] { ++counter; });
}

// A streamed batch is scheduling API too: every `fire` call runs later.
struct Batches {
  template <typename F> void schedule_batch(const long* when, F&& fire);
};

void replay(Batches& batches, int& counter) {
  batches.schedule_batch(nullptr, [&counter](unsigned long) { ++counter; });
}

}  // namespace fx
