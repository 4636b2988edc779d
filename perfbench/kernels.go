package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/isa"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// kernelBudget is how long each direct kernel measurement of a traced
// run lasts (at least one call). Calls cycle through the queries
// fastest, so every query length is represented.
const kernelBudget = 300 * time.Millisecond

// batchLanes is the lane stride the search pipeline resolves by
// default (sched.Options.width): 64 where the native architecture
// model has AVX-512, else 32.
func batchLanes() int {
	if isa.Native().HasAVX512 {
		return seqio.MaxBatchLanes
	}
	return seqio.BatchLanes
}

// stripedVariant is the striped-family kernel the planner picks for
// long queries under this gap model (sched/planner.go,
// stripedFewCorrections): classic lazy-F when one gap open costs more
// than the best substitution, the deconstructed scan otherwise.
func stripedVariant(mat *submat.Matrix, g aln.Gaps) core.Kernel {
	if g.Open > int32(mat.Max()) {
		return core.KernelStriped
	}
	return core.KernelLazyF
}

// kernelEnv calls the batch kernels the way the search pipeline does:
// native backend, one scratch arena, an explicit kernel family.
type kernelEnv struct {
	tables  *submat.CodeTables
	scratch *core.Scratch
	gaps    aln.Gaps
}

func newKernelEnv(mat *submat.Matrix, g aln.Gaps) *kernelEnv {
	return &kernelEnv{tables: submat.NewCodeTables(mat), scratch: core.NewScratch(), gaps: g}
}

func (e *kernelEnv) opt(k core.Kernel) core.BatchOptions {
	return core.BatchOptions{Gaps: e.gaps, Scratch: e.scratch, Backend: core.BackendNative, Kernel: k}
}

func (e *kernelEnv) align8(q []uint8, b *seqio.Batch, k core.Kernel) (core.BatchResult, error) {
	return core.AlignBatch8(vek.Bare, q, e.tables, b, e.opt(k))
}

func (e *kernelEnv) align16(q []uint8, b *seqio.Batch, k core.Kernel) (core.BatchResult, error) {
	return core.AlignBatch16(vek.Bare, q, e.tables, b, e.opt(k))
}

// kernelRates are the compiled kernels measured one call at a time,
// single threaded, on the workload's own queries and transposed
// batches, in GCUPS of real (unpadded) cells.
type kernelRates struct {
	batch8, batch16, striped, multi8 float64
}

func measureKernels(queries [][]uint8, batches []*seqio.Batch, mat *submat.Matrix, g aln.Gaps) (kernelRates, error) {
	env := newKernelEnv(mat, g)
	single := func(align func(q []uint8, b *seqio.Batch, k core.Kernel) (core.BatchResult, error), k core.Kernel) (float64, error) {
		var cells int64
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < kernelBudget; i++ {
			q, b := queries[i%len(queries)], batches[(i/len(queries))%len(batches)]
			if _, err := align(q, b, k); err != nil {
				return 0, err
			}
			cells += b.Cells(len(q))
		}
		return float64(cells) / time.Since(start).Seconds() / 1e9, nil
	}
	var r kernelRates
	var err error
	if r.batch8, err = single(env.align8, core.KernelDiagonal); err != nil {
		return r, fmt.Errorf("batch8: %w", err)
	}
	if r.batch16, err = single(env.align16, core.KernelDiagonal); err != nil {
		return r, fmt.Errorf("batch16: %w", err)
	}
	if r.striped, err = single(env.align8, stripedVariant(mat, g)); err != nil {
		return r, fmt.Errorf("striped: %w", err)
	}

	// The multi-query engine runs the server's default accumulation of
	// eight queries per call.
	const group = 8
	var cells int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < kernelBudget; i++ {
		b := batches[i%len(batches)]
		qs := make([][]uint8, 0, group)
		for j := 0; j < group; j++ {
			q := queries[(i*group+j)%len(queries)]
			qs = append(qs, q)
			cells += b.Cells(len(q))
		}
		if _, err := core.AlignBatch8Multi(vek.Bare, qs, env.tables, b, env.opt(core.KernelDiagonal)); err != nil {
			return r, fmt.Errorf("multi8: %w", err)
		}
	}
	r.multi8 = float64(cells) / time.Since(start).Seconds() / 1e9
	return r, nil
}

// scalarSampler measures the scalar reference on one locked OS thread
// in short slices spread over the latency workloads' timed window, so
// it sees the same host phases as the servers it is compared with. Its
// rate is GCUPS per second of the thread's own CPU time, the unit of
// those workloads' CPU-normalized gcups. The slices add about 2% load
// on a 2-vCPU host, the same in every run.
type scalarSampler struct {
	stop, done chan struct{}
	cells      int64
	cpu        time.Duration
}

const (
	samplerSlice = 20 * time.Millisecond
	samplerEvery = 400 * time.Millisecond
)

func startScalarSampler(queries, targets [][]uint8, mat *submat.Matrix, g aln.Gaps) *scalarSampler {
	s := &scalarSampler{stop: make(chan struct{}), done: make(chan struct{})}
	refs := make([]*scalarRef, len(queries))
	for i, q := range queries {
		refs[i] = newScalarRef(q, mat, g.Open, g.Extend)
	}
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(samplerEvery)
		defer tick.Stop()
		for i := 0; ; {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			start, cpu0 := time.Now(), threadCPU()
			for time.Since(start) < samplerSlice {
				qi, d := i%len(queries), targets[(i/len(queries))%len(targets)]
				refs[qi].score(d)
				s.cells += int64(len(queries[qi]) * len(d))
				i++
			}
			s.cpu += threadCPU() - cpu0
		}
	}()
	return s
}

// finish stops the sampler and returns its rate.
func (s *scalarSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return ratio(float64(s.cells), s.cpu.Seconds()*1e9)
}

// threadCPU is the calling OS thread's CPU time (RUSAGE_THREAD).
func threadCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(1, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
