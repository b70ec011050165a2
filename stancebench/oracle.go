package main

import (
	"fmt"
	"math"
	"sort"
)

// oracle is the benchmark's own sequential Figure 8 loop. It shares no
// code with the runtime: it relabels the input graph by the workload's
// ordering itself, sums each vertex's neighbours in ascending
// transformed-index order (the order the runtime's localized CSR keeps)
// and divides by the degree, so a correct parallel run matches it bit
// for bit.
type oracle struct {
	n    int
	xadj []int32
	adj  []int32
	// perm[v] is original vertex v's transformed index.
	perm []int32
}

// newOracle relabels a CSR graph (xadj/adj in original numbering) by
// perm, where perm[old] = new.
func newOracle(xadj, adj []int32, perm []int32) (*oracle, error) {
	n := len(xadj) - 1
	if len(perm) != n {
		return nil, fmt.Errorf("oracle: permutation of %d for %d vertices", len(perm), n)
	}
	inv := make([]int32, n)
	for i := range inv {
		inv[i] = -1
	}
	for old, nw := range perm {
		if nw < 0 || int(nw) >= n || inv[nw] != -1 {
			return nil, fmt.Errorf("oracle: perm[%d] = %d is not a permutation", old, nw)
		}
		inv[nw] = int32(old)
	}
	o := &oracle{n: n, xadj: make([]int32, n+1), adj: make([]int32, len(adj)), perm: perm}
	for nw := 0; nw < n; nw++ {
		old := inv[nw]
		lo, hi := xadj[old], xadj[old+1]
		o.xadj[nw+1] = o.xadj[nw] + (hi - lo)
		dst := o.adj[o.xadj[nw]:o.xadj[nw+1]]
		for i, w := range adj[lo:hi] {
			dst[i] = perm[w]
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	}
	return o, nil
}

// initial returns field f's starting values in transformed order:
// (g mod 97) + 1 + f.
func (o *oracle) initial(f int) []float64 {
	y := make([]float64, o.n)
	for g := range y {
		y[g] = float64(g%97) + 1 + float64(f)
	}
	return y
}

// step advances y by one Figure 8 iteration (Jacobi: every sum reads
// the previous iterate), using t as scratch.
func (o *oracle) step(y, t []float64) {
	for u := 0; u < o.n; u++ {
		sum := 0.0
		for k := o.xadj[u]; k < o.xadj[u+1]; k++ {
			sum += y[o.adj[k]]
		}
		t[u] = sum
	}
	for u := 0; u < o.n; u++ {
		if d := o.xadj[u+1] - o.xadj[u]; d > 0 {
			y[u] = t[u] / float64(d)
		}
	}
}

// run returns field f after iters iterations, in transformed order.
func (o *oracle) run(f, iters int) []float64 {
	y := o.initial(f)
	t := make([]float64, o.n)
	for i := 0; i < iters; i++ {
		o.step(y, t)
	}
	return y
}

// weightedSum is Σ deg(v)·y(v), which Figure 8 conserves on any
// undirected graph: Σ_v deg(v)·y'(v) = Σ_v Σ_{u~v} y(u) = Σ_u deg(u)·y(u).
func (o *oracle) weightedSum(y []float64) float64 {
	s := 0.0
	for u := 0; u < o.n; u++ {
		s += float64(o.xadj[u+1]-o.xadj[u]) * y[u]
	}
	return s
}

// check verifies a gathered field against the oracle's expected values
// bit for bit, and the conservation invariant within 1e-9 relative.
func (o *oracle) check(what string, got, want []float64, f int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: gathered %d values, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: element %d is %v, oracle says %v", what, i, got[i], want[i])
		}
	}
	w0 := o.weightedSum(o.initial(f))
	if w := o.weightedSum(got); math.Abs(w-w0) > 1e-9*math.Abs(w0) {
		return fmt.Errorf("%s: Σ deg·y = %v, started at %v", what, w, w0)
	}
	return nil
}

// checkItems verifies element conservation: the items the ranks report
// add up to N × fields × iterations.
func checkItems(what string, items int64, n, fields, iters int) error {
	if want := int64(n) * int64(fields) * int64(iters); items != want {
		return fmt.Errorf("%s: ranks computed %d items, want N×fields×iters = %d", what, items, want)
	}
	return nil
}
