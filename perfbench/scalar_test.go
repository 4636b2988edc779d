package main

import (
	"math/rand"
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/seqio"
	"swvec/internal/submat"
)

// TestScalarRefMatchesScalarAffine checks the benchmark's scalar
// reference against the library's golden Gotoh oracle on unrelated
// pairs, planted homologs (long high-scoring alignments), one-residue
// edge cases, and several gap models.
func TestScalarRefMatchesScalarAffine(t *testing.T) {
	mat := submat.Blosum62()
	alpha := mat.Alphabet()
	g := seqio.NewGenerator(11)
	rng := rand.New(rand.NewSource(5))
	gaps := []aln.Gaps{aln.DefaultGaps(), {Open: 3, Extend: 1}, {Open: 2, Extend: 2}, {Open: 20, Extend: 3}}
	for n := 0; n < 300; n++ {
		q := g.Protein("q", 1+rng.Intn(400))
		var d seqio.Sequence
		switch n % 3 {
		case 0:
			d = g.Protein("d", 1+rng.Intn(600))
		case 1:
			d = g.Related(q, "d", 0.2, 0.03)
		default:
			d = g.Protein("d", 1)
		}
		qe, de := q.Encode(alpha), d.Encode(alpha)
		gp := gaps[n%len(gaps)]
		want := baselines.ScalarAffine(qe, de, mat, gp).Score
		ref := newScalarRef(qe, mat, gp.Open, gp.Extend)
		if got := ref.score(de); got != want {
			t.Fatalf("pair %d (qlen=%d dlen=%d gaps=%+v): scalar ref %d, ScalarAffine %d", n, len(qe), len(de), gp, got, want)
		}
		// The reference is reused across targets in the benchmark, so a
		// second call must not see state from the first.
		if got := ref.score(de); got != want {
			t.Fatalf("pair %d: reused scalar ref %d, ScalarAffine %d", n, got, want)
		}
	}
}
