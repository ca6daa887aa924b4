package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"deep500/internal/dist"
	"deep500/internal/mpi"
)

// ResNet-50 data-parallel parameters for the scaling simulation.
const (
	resnet50Params   = 25_600_000
	resnet50GradB    = int64(resnet50Params) * 4
	imagesPerSecP100 = 250.0 // ≈ P100 ResNet-50 fwd+bwd throughput
)

// Cost profiles: "C++" custom operators with direct GPU pointers vs
// "Python" reference bindings that stage through NumPy and host memory
// (§V-E: the C++ DSGD "is almost an order of magnitude faster than its
// Python counterpart, which undergoes conversions to/from NumPy arrays").
func cppProfile() mpi.CostModel {
	return mpi.CostModel{
		Latency: 1500, Bandwidth: 10e9,
		SendOverhead: 500, PerMessageCPU: 5 * time.Microsecond,
		HostDeviceBandwidth: 50e9, // GPUDirect-style
	}
}

func pythonProfile() mpi.CostModel {
	return mpi.CostModel{
		Latency: 1500, Bandwidth: 10e9,
		SendOverhead: 500, PerMessageCPU: 2 * time.Millisecond,
		HostDeviceBandwidth: 2e9, // synchronous GPU→host→NumPy staging
	}
}

// Fig12Row is one (scheme, nodes) scaling measurement.
type Fig12Row struct {
	Scheme     string
	Nodes      int
	Throughput float64 // images per simulated second
	PerNodeGB  float64 // communicated data per node
	Failed     string  // non-empty: observed failure (paper replication)
}

// fig12Scheme describes one distributed optimizer variant for the scaling
// simulation. Communication is executed for real over the goroutine ranks
// (small live buffers, ResNet-50-sized charges); compute advances virtual
// time by the P100 model.
type fig12Scheme struct {
	name string
	cost mpi.CostModel
	// run executes iters training steps of the scheme on rank r with the
	// given per-node batch.
	run func(r *mpi.Rank, iters, batchPerNode int) error
	// centralized marks parameter-server schemes (rank 0 is the server and
	// contributes no images).
	centralized bool
	// failsAt emulates failures the paper observed at specific scales
	// (TF-PS crash, Horovod divergence at 256 nodes).
	failsAt map[int]string
}

func computeStep(r *mpi.Rank, batchPerNode int) {
	r.Compute(time.Duration(float64(batchPerNode) / imagesPerSecP100 * float64(time.Second)))
}

// liveBuf is the small real payload carried by simulated large messages.
func liveBuf() []float32 { return make([]float32, 256) }

func fig12Schemes(staleness int) []fig12Scheme {
	ctx := context.Background()
	// send charges a ResNet-50-sized message (or bytes, when given) to dst;
	// recv takes the next message from src.
	send := func(r *mpi.Rank, dst int, bytes int64) error { return r.Send(dst, 0, liveBuf(), bytes) }
	recv := func(r *mpi.Rank, src int) (int, error) {
		m, err := r.Recv(ctx, src)
		return m.Src, err
	}
	ring := func(r *mpi.Rank, iters, batch int) error {
		buf := liveBuf()
		for i := 0; i < iters; i++ {
			computeStep(r, batch)
			if err := dist.AllreduceSum(ctx, r, buf, resnet50GradB); err != nil {
				return err
			}
		}
		return nil
	}
	// worker is a parameter-server worker: compute, push, await parameters.
	worker := func(r *mpi.Rank, iters, batch int) error {
		for i := 0; i < iters; i++ {
			computeStep(r, batch)
			if err := send(r, 0, resnet50GradB); err != nil {
				return err
			}
			if _, err := recv(r, 0); err != nil {
				return err
			}
		}
		return nil
	}
	psSync := func(r *mpi.Rank, iters, batch int) error {
		if r.ID() != 0 {
			return worker(r, iters, batch)
		}
		for i := 0; i < iters; i++ {
			for w := 1; w < r.Size(); w++ {
				if _, err := recv(r, w); err != nil {
					return err
				}
			}
			for w := 1; w < r.Size(); w++ {
				if err := send(r, w, resnet50GradB); err != nil {
					return err
				}
			}
		}
		return nil
	}
	psAsync := func(r *mpi.Rank, iters, batch int) error {
		if r.ID() != 0 {
			return worker(r, iters, batch)
		}
		for n := 0; n < (r.Size()-1)*iters; n++ {
			src, err := recv(r, mpi.AnySource)
			if err != nil {
				return err
			}
			if err := send(r, src, resnet50GradB); err != nil {
				return err
			}
		}
		return nil
	}
	dpsgd := func(r *mpi.Rank, iters, batch int) error {
		p := r.Size()
		for i := 0; i < iters; i++ {
			computeStep(r, batch)
			if p == 1 {
				continue
			}
			left, right := (r.ID()-1+p)%p, (r.ID()+1)%p
			if err := send(r, right, resnet50GradB); err != nil {
				return err
			}
			if err := send(r, left, resnet50GradB); err != nil {
				return err
			}
			for _, src := range []int{left, right} {
				if _, err := recv(r, src); err != nil {
					return err
				}
			}
		}
		return nil
	}
	sparse := func(r *mpi.Rank, iters, batch int) error {
		// SparCML-style: top-10% selection (charged as filter compute) then
		// recursive-doubling exchange of a densifying sparse vector.
		const density = 0.1
		filter := time.Duration(float64(resnet50Params) / 400e6 * float64(time.Second)) // selection pass
		for i := 0; i < iters; i++ {
			computeStep(r, batch)
			r.Compute(filter)
			nnz := int64(float64(resnet50Params) * density)
			for mask := 1; mask < r.Size(); mask <<= 1 {
				partner := r.ID() ^ mask
				if err := send(r, partner, nnz*8); err != nil { // index+value per entry
					return err
				}
				if _, err := recv(r, partner); err != nil {
					return err
				}
				// densification: the union roughly doubles until saturation
				nnz *= 2
				if nnz > int64(resnet50Params) {
					nnz = int64(resnet50Params)
				}
			}
		}
		return nil
	}
	// Model averaging communicates parameters, not gradients, in the same
	// ring all-reduce.
	mavg := ring
	_ = staleness
	return []fig12Scheme{
		{name: "CDSGD", cost: cppProfile(), run: ring},
		{name: "Horovod", cost: cppProfile(), run: ring,
			failsAt: map[int]string{256: "exploding loss (paper §V-E observation)"}},
		{name: "SparCML", cost: cppProfile(), run: sparse},
		{name: "REF-dsgd", cost: pythonProfile(), run: ring},
		{name: "REF-dpsgd", cost: pythonProfile(), run: dpsgd},
		{name: "REF-mavg", cost: pythonProfile(), run: mavg},
		{name: "REF-pssgd", cost: pythonProfile(), run: psSync, centralized: true},
		{name: "REF-asgd", cost: pythonProfile(), run: psAsync, centralized: true},
		{name: "TF-PS", cost: cppProfile(), run: psSync, centralized: true,
			failsAt: map[int]string{256: "crash (paper §V-E observation)"}},
	}
}

// RunFig12Strong reproduces the strong-scaling experiment: global minibatch
// 1024 split over 8–64 nodes.
func RunFig12Strong(o Options) ([]Fig12Row, error) {
	nodes := []int{8, 16, 32, 64}
	globalBatch := 1024
	iters := 4
	if o.Quick {
		nodes = []int{4, 8}
		iters = 2
	}
	return runFig12(o, nodes, func(p int) int { return globalBatch / p }, iters,
		[]string{"CDSGD", "Horovod", "SparCML", "REF-dsgd", "REF-dpsgd", "REF-mavg", "REF-pssgd", "REF-asgd", "TF-PS"})
}

// RunFig12Weak reproduces the weak-scaling experiment: fixed per-node batch
// on 1–256 nodes.
func RunFig12Weak(o Options) ([]Fig12Row, error) {
	nodes := []int{1, 4, 16, 64, 256}
	perNode := 64
	iters := 4
	if o.Quick {
		nodes = []int{1, 4, 16}
		iters = 2
	}
	return runFig12(o, nodes, func(int) int { return perNode }, iters,
		[]string{"CDSGD", "Horovod", "SPARCML", "TF-PS"})
}

func runFig12(o Options, nodes []int, batchPerNode func(p int) int, iters int, schemeNames []string) ([]Fig12Row, error) {
	wanted := make(map[string]bool, len(schemeNames))
	for _, n := range schemeNames {
		wanted[normalize(n)] = true
	}
	var rows []Fig12Row
	for _, scheme := range fig12Schemes(2) {
		if !wanted[normalize(scheme.name)] {
			continue
		}
		for _, p := range nodes {
			if msg, bad := scheme.failsAt[p]; bad {
				rows = append(rows, Fig12Row{Scheme: scheme.name, Nodes: p, Failed: msg})
				continue
			}
			batch := batchPerNode(p)
			if batch < 1 {
				batch = 1
			}
			workers := p
			if scheme.centralized && p > 1 {
				workers = p - 1
			}
			sentPerNode := make([]int64, p)
			makespan, _, err := mpi.Run(p, scheme.cost, func(r *mpi.Rank) error {
				err := scheme.run(r, iters, batch)
				sentPerNode[r.ID()] = r.SentBytes
				return err
			})
			if err != nil {
				return rows, fmt.Errorf("%s at %d nodes: %w", scheme.name, p, err)
			}
			images := float64(workers * batch * iters)
			row := Fig12Row{Scheme: scheme.name, Nodes: p}
			if makespan > 0 {
				row.Throughput = images / makespan.Seconds()
			}
			// report a worker's volume (rank p-1 is always a worker)
			row.PerNodeGB = float64(sentPerNode[p-1]) / 1e9
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func normalize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}

// RenderFig12 renders scaling rows.
func RenderFig12(title string, rows []Fig12Row) *Table {
	t := &Table{Title: title,
		Headers: []string{"Optimizer", "Nodes", "Throughput [img/s]", "Sent/node"}}
	for _, r := range rows {
		if r.Failed != "" {
			t.AddRow(r.Scheme, strconv.Itoa(r.Nodes), "n/a: "+r.Failed, "-")
			continue
		}
		t.AddRow(r.Scheme, strconv.Itoa(r.Nodes),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.3f GB", r.PerNodeGB))
	}
	t.AddNote("throughput in *simulated* seconds (α-β virtual clock; see internal/mpi)")
	t.AddNote("expected shape: CDSGD/Horovod ≈10x REF-dsgd; ASGD degrades with nodes; PSSGD messages grow with nodes; SparCML volume < dense but slower at scale")
	return t
}

// SimClockNote documents virtual-time semantics for reports.
const SimClockNote = "distributed timings use the deterministic α-β virtual clock of internal/mpi; " +
	"collectives move real data between goroutine ranks, so algorithmic correctness is testable bit-for-bit"
