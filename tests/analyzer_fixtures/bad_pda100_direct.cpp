// PDA100 fixture: collectives under rank-tainted branches.  Lines that
// must be flagged carry an expectation marker; everything else must
// stay quiet.
#include <vector>

struct Comm {
  int rank() const;
  int size() const;
  void barrier();
  int all_reduce(int v);
  template <class Seed, class Fold>
  int all_fold(std::vector<char> mine, Seed seed, Fold fold);
};

// Direct: the branch condition reads rank() itself.
void divergent_direct(Comm& comm) {
  if (comm.rank() == 0) {
    comm.barrier();  // expect-PDA100
  }
}

// The allgather-fold is a collective like any other.
int divergent_fold(Comm& comm, std::vector<char> blob) {
  int acc = 0;
  if (comm.rank() == 0) {
    acc = comm.all_fold(  // expect-PDA100
        blob, [](const std::vector<char>& b) { return int(b.size()); },
        [](int a, const std::vector<char>& b) { return a + int(b.size()); });
  }
  return acc;
}

// Propagated: a variable assigned from rank() taints the condition.
void divergent_propagated(Comm& comm) {
  const int leader = comm.rank();
  if (leader == 0) {
    comm.barrier();  // expect-PDA100
  }
}

// The else branch of a tainted condition is just as divergent.
void divergent_else(Comm& comm) {
  if (comm.rank() == 0) {
    int x = 1;
    (void)x;
  } else {
    comm.barrier();  // expect-PDA100
  }
}

// Laundering a local value through a symmetric collective makes it
// rank-uniform: loops bounded by it are lockstep-safe.
int uniform_is_clean(Comm& comm, int local_blocks) {
  const int rounds = comm.all_reduce(local_blocks);
  int sum = 0;
  for (int r = 0; r < rounds; ++r) {
    comm.barrier();
    ++sum;
  }
  return sum;
}

// A collective outside any branch is the normal SPMD case.
void flat_is_clean(Comm& comm) { comm.barrier(); }
