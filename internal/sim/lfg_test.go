package sim

import (
	"math/rand"
	"testing"
)

// schrageSeedrand is the stdlib's original Schrage-decomposition step,
// kept as the reference the fast Mersenne fold must match.
func schrageSeedrand(x int32) int32 {
	hi := x / 44488
	lo := x % 44488
	x = 48271*lo - 3399*hi
	if x < 0 {
		x += 1<<31 - 1
	}
	return x
}

func TestSeedrandMatchesSchrage(t *testing.T) {
	// Boundaries plus a dense random sweep of the Lehmer state space.
	for _, x := range []int32{1, 2, 44487, 44488, 44489, seedZero, lehmerM - 1} {
		if got, want := seedrand(x), schrageSeedrand(x); got != want {
			t.Fatalf("seedrand(%d) = %d, want %d", x, got, want)
		}
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2_000_000; i++ {
		x := int32(r.Int63n(lehmerM-1)) + 1
		if got, want := seedrand(x), schrageSeedrand(x); got != want {
			t.Fatalf("seedrand(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestLFGMatchesStdlib is the bit-compatibility contract: for a spread of
// seeds (including the degenerate and negative cases the stdlib
// canonicalizes), the in-package source must reproduce rand.NewSource's
// stream exactly, via both Uint64 and Int63.
func TestLFGMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, -42, 89482311, lehmerM, lehmerM + 1,
		-9223372036854775808, 9223372036854775807, 123456789012345}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		ref, ok := rand.NewSource(seed).(rand.Source64)
		if !ok {
			t.Fatal("stdlib source is not a Source64")
		}
		got := newSource(seed)
		for i := 0; i < 1500; i++ { // > lfgLen: crosses the tap/feed wrap
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
			}
		}
		ref = rand.NewSource(seed).(rand.Source64)
		got.Seed(seed) // exercises the template-cache path
		for i := 0; i < 700; i++ {
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestLFGDistributionsMatchStdlib checks the composed rand.Rand draws the
// simulation actually uses (Float64, NormFloat64, ExpFloat64, Intn, Perm)
// are bit-identical, not just the raw source words.
func TestLFGDistributionsMatchStdlib(t *testing.T) {
	for _, seed := range []int64{3, 1234567, -987654321} {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		for i := 0; i < 2000; i++ {
			if g, w := got.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d: Float64 diverges at draw %d", seed, i)
			}
			if g, w := got.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 diverges at draw %d", seed, i)
			}
			if g, w := got.ExpFloat64(), ref.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 diverges at draw %d", seed, i)
			}
			if g, w := got.Intn(97), ref.Intn(97); g != w {
				t.Fatalf("seed %d: Intn diverges at draw %d", seed, i)
			}
		}
		gp, wp := got.Perm(25), ref.Perm(25)
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d: Perm diverges at %d", seed, i)
			}
		}
	}
}

// TestLFGSeedCacheConcurrent hammers the shared seed-template cache from
// many goroutines; run under -race this proves stream construction is safe
// in the parallel experiment engine.
func TestLFGSeedCacheConcurrent(t *testing.T) {
	var want [8]uint64
	for s := range want {
		want[s] = newSource(int64(1000 + s)).Uint64()
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				s := (g + i) % 8
				if got := newSource(int64(1000 + s)).Uint64(); got != want[s] {
					done <- errTestMismatch
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errTestMismatch = errorString("cached seed produced a different stream")

type errorString string

func (e errorString) Error() string { return string(e) }

func BenchmarkNewSourceStdlib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = rand.NewSource(int64(i))
	}
}

func BenchmarkNewSourceLFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = newSource(int64(i % (2 * seedVecsLimit))) // mixes cold and cached seeds
	}
}

// BenchmarkStreamDerive times one fresh root deriving streamsPerOp streams.
// A root retains every stream it derives (for HashTree), so a root shared
// across iterations would make ns/op grow with b.N.
func BenchmarkStreamDerive(b *testing.B) {
	const streamsPerOp = 64
	for i := 0; i < b.N; i++ {
		root := NewRNG(1)
		for n := 0; n < streamsPerOp; n++ {
			_ = root.StreamN("bench", n)
		}
	}
}
