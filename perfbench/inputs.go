package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"swvec/internal/seqio"
)

// Input sizes. Everything is generated from the run's seed; the
// program under test only ever sees the generated sequences.
const (
	// searchDBSeqs sizes the search database so that one pass of the
	// short query set takes about half a second and one pass of the long
	// set about one on a 2-vCPU host: enough whole passes per run for
	// medians, and the unsorted batches still pad past the planner's
	// striped threshold.
	searchDBSeqs = 200
	// serveDBSeqs proteins, no longer than serveMaxLen, keep a
	// single-threaded shard's compute per request around 10 ms, far
	// below swrouter's default 150 ms hedge delay even when the host
	// runs at half speed. Closer to that delay a slow host phase tips the
	// cluster into hedge storms (hedges to the one replica double its
	// work, which delays more requests past the delay), and latency
	// stops being repeatable; see LEDGER.md.
	serveDBSeqs = 40
	serveMaxLen = 350
	// servePoolSize queries, with lengths evenly spaced over
	// [servePoolMin, servePoolMax], make up the request pool, so every
	// seed offers the same total work in a different order. The timed
	// window cycles through the pool from its start, and 28 divides
	// the 112 requests of a 28 s run at serveRate.
	servePoolSize = 28
	servePoolMin  = 50
	servePoolMax  = 300
	// Planted homologs: substitution and indel rates of
	// Generator.Related. At these rates a homolog of a query of 64 or
	// more residues scores past the 8-bit ceiling, so the 16-bit rescue
	// runs.
	homologSub   = 0.15
	homologIndel = 0.02
)

// Query lengths of the two search workloads: the standard query set
// split at the planner's striped threshold. The long set stops at
// 1500: one 2500-residue call took half a pass, so a run held few
// passes, and with four lengths the median call latency fell on the
// boundary between two of them, where it jumped from run to run.
var (
	shortLens = []int{35, 64, 110, 190, 320}
	longLens  = []int{511, 850, 1500}
)

// searchInputs is the shared database of both search workloads: a
// Swiss-Prot-like synthetic database, unsorted, holding one planted
// homolog of every short and long query.
type searchInputs struct {
	db      []seqio.Sequence
	queries []seqio.Sequence // shortLens then longLens
	planted []int            // db index of each query's homolog
}

func makeSearchInputs(seed int64) searchInputs {
	var in searchInputs
	qg := seqio.NewGenerator(seed + 1)
	for i, n := range append(append([]int(nil), shortLens...), longLens...) {
		in.queries = append(in.queries, qg.Protein(fmt.Sprintf("QRY%02d_len%d", i, n), n))
	}
	in.db, in.planted = plant(database(seqio.NewGenerator(seed), searchDBSeqs), in.queries, qg)
	return in
}

// pick returns the queries of the given lengths and their homologs.
func (in searchInputs) pick(lens []int) (qs []seqio.Sequence, planted []int) {
	for _, n := range lens {
		for i, q := range in.queries {
			if q.Len() == n {
				qs = append(qs, q)
				planted = append(planted, in.planted[i])
			}
		}
	}
	return qs, planted
}

// layoutSeed fixes where each length and each planted homolog sits in
// a database, the same for every run seed: the engines' padding, the
// shards' slices (swrouter assigns sequences by ID) and so the work per
// pass depend on that layout, and a seed that happened to put the
// longest proteins into one batch or one shard would measure the layout
// instead of the system. Residues, queries and request order still
// vary with the run seed.
const layoutSeed = 1

// database generates count proteins whose lengths are the generator's
// Swiss-Prot length model (log-normal, clipped) at evenly spaced
// quantiles, in the fixed layout order.
func database(g *seqio.Generator, count int) []seqio.Sequence {
	mu := math.Log(g.MeanLen) - g.SigmaLn*g.SigmaLn/2
	seqs := make([]seqio.Sequence, count)
	for i, k := range rand.New(rand.NewSource(layoutSeed)).Perm(count) {
		z := math.Sqrt2 * math.Erfinv(2*(float64(k)+0.5)/float64(count)-1)
		n := int(math.Round(math.Exp(mu + g.SigmaLn*z)))
		seqs[i] = g.Protein(fmt.Sprintf("SYN%06d", i), min(max(n, g.MinLen), g.MaxLen))
	}
	return seqs
}

// plant inserts one Related homolog of each query at a position of the
// fixed layout and returns the new database and each homolog's index.
func plant(db, queries []seqio.Sequence, g *seqio.Generator) ([]seqio.Sequence, []int) {
	rng := rand.New(rand.NewSource(layoutSeed))
	out := append([]seqio.Sequence(nil), db...)
	for i, q := range queries {
		h := g.Related(q, fmt.Sprintf("HOM%02d_%s", i, q.ID), homologSub, homologIndel)
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append([]seqio.Sequence{h}, out[at:]...)...)
	}
	// Indices are resolved after all insertions, since later inserts
	// shift earlier homologs.
	pos := map[string]int{}
	for i, s := range out {
		pos[s.ID] = i
	}
	planted := make([]int, len(queries))
	for i, q := range queries {
		planted[i] = pos[fmt.Sprintf("HOM%02d_%s", i, q.ID)]
	}
	return out, planted
}

// serveInputs is the database and request pool of the serve and
// cluster workloads. Every fourth pool query has a planted homolog.
type serveInputs struct {
	db   []seqio.Sequence
	pool []seqio.Sequence
}

func makeServeInputs(seed int64) serveInputs {
	qg := seqio.NewGenerator(seed + 1)
	rng := rand.New(rand.NewSource(seed + 2))
	var in serveInputs
	order := rng.Perm(servePoolSize)
	for i := range order {
		n := servePoolMin + order[i]*(servePoolMax-servePoolMin)/(servePoolSize-1)
		in.pool = append(in.pool, qg.Protein(fmt.Sprintf("REQ%02d_len%d", i, n), n))
	}
	var homologOf []seqio.Sequence
	for i := 0; i < len(in.pool); i += 4 {
		homologOf = append(homologOf, in.pool[i])
	}
	g := seqio.NewGenerator(seed)
	g.MaxLen = serveMaxLen
	in.db, _ = plant(database(g, serveDBSeqs), homologOf, qg)
	return in
}

// writeFasta writes seqs to dir/name and returns the path.
func writeFasta(dir, name string, seqs []seqio.Sequence) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := seqio.WriteFasta(f, seqs); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
