package main

import (
	"sort"
	"sync"

	"swvec/internal/aln"
	"swvec/internal/alphabet"
	"swvec/internal/seqio"
	"swvec/internal/submat"
)

// scalarRef is the scalar reference every speed figure is divided by:
// a plain Gotoh local-alignment loop with a query profile indexed by
// database residue and int32 column arrays, and no per-cell method
// call. It is the simplest credible fast scalar kernel, so
// speedup_vs_scalar says what the vector paths buy over it.
type scalarRef struct {
	prof      [alphabet.Width][]int32 // prof[r][i] = score(query[i], r)
	h, e      []int32
	open, ext int32
}

func newScalarRef(query []uint8, mat *submat.Matrix, open, ext int32) *scalarRef {
	s := &scalarRef{h: make([]int32, len(query)), e: make([]int32, len(query)), open: open, ext: ext}
	for r := range s.prof {
		row := make([]int32, len(query))
		for i, q := range query {
			row[i] = int32(mat.Score(q, uint8(r)))
		}
		s.prof[r] = row
	}
	return s
}

// score returns the best local alignment score of the query against d.
func (s *scalarRef) score(d []uint8) int32 {
	const negInf = -1 << 29
	h, e := s.h, s.e
	for i := range h {
		h[i], e[i] = 0, negInf
	}
	var best int32
	for _, r := range d {
		row := s.prof[r][:len(h)]
		var diag, up int32 // H(i-1, j-1) and H(i-1, j)
		f := int32(negInf)
		for i, sc := range row {
			ei := max(e[i]-s.ext, h[i]-s.open)
			f = max(f-s.ext, up-s.open)
			v := max(diag+sc, 0, ei, f)
			diag, h[i], e[i], up = h[i], v, ei, v
			best = max(best, v)
		}
	}
	return best
}

// scalarPool runs the scalar reference for one query over a fixed set
// of database sequences, split across threads goroutines.
type scalarPool struct {
	refs    [][]*scalarRef // [thread][query]
	targets [][][]uint8    // [thread] its share of the sequences
	cells   []int64        // per query, one run
}

func newScalarPool(queries [][]uint8, db []seqio.Sequence, pick []int, threads int, mat *submat.Matrix, g aln.Gaps) *scalarPool {
	p := &scalarPool{refs: make([][]*scalarRef, threads), targets: make([][][]uint8, threads), cells: make([]int64, len(queries))}
	for t := range p.refs {
		for _, q := range queries {
			p.refs[t] = append(p.refs[t], newScalarRef(q, mat, g.Open, g.Extend))
		}
	}
	// Longest first onto the least-loaded thread, so the threads finish
	// together.
	seqs := make([][]uint8, len(pick))
	for i, di := range pick {
		seqs[i] = db[di].Encode(mat.Alphabet())
	}
	sort.Slice(seqs, func(a, b int) bool { return len(seqs[a]) > len(seqs[b]) })
	load := make([]int, threads)
	for _, d := range seqs {
		t := 0
		for i := range load {
			if load[i] < load[t] {
				t = i
			}
		}
		load[t] += len(d)
		p.targets[t] = append(p.targets[t], d)
		for qi, q := range queries {
			p.cells[qi] += int64(len(q) * len(d))
		}
	}
	return p
}

// run scores query qi against every target and returns once all
// threads finished.
func (p *scalarPool) run(qi int) {
	var wg sync.WaitGroup
	for t := range p.refs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for _, d := range p.targets[t] {
				p.refs[t][qi].score(d)
			}
		}(t)
	}
	wg.Wait()
}
