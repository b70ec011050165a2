package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"stance"
)

// runtimeResult runs the runtime on a small mesh and returns the
// oracle, the gathered fields and the iteration count.
func runtimeResult(t *testing.T) (*oracle, [][]float64, int) {
	t.Helper()
	g, err := stance.GridMesh(30, 30, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	const fields, iters = 2, 25
	ctx := context.Background()
	s, err := stance.NewSession(ctx, g, 3, stance.WithOrdering("rcb"), stance.WithFields(fields), stance.WithPipeline(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(iters); err != nil {
		t.Fatal(err)
	}
	perm, err := orderPerm("rcb", g)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(g.Xadj, g.Adj, perm)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float64, fields)
	for f := range got {
		if got[f], err = gatherField(ctx, s, f); err != nil {
			t.Fatal(err)
		}
	}
	return orc, got, iters
}

func TestOracleAcceptsRuntimeResult(t *testing.T) {
	orc, got, iters := runtimeResult(t)
	for f := range got {
		if err := orc.check("field", got[f], orc.run(f, iters), f); err != nil {
			t.Fatalf("field %d: %v", f, err)
		}
	}
}

func TestOracleRejectsPerturbedResult(t *testing.T) {
	orc, got, iters := runtimeResult(t)
	want := orc.run(0, iters)

	oneULP := append([]float64(nil), got[0]...)
	oneULP[17] = math.Nextafter(oneULP[17], math.Inf(1))
	if err := orc.check("field", oneULP, want, 0); err == nil || !strings.Contains(err.Error(), "element 17") {
		t.Fatalf("a one-ulp change was not caught: %v", err)
	}

	swapped := append([]float64(nil), got[0]...)
	swapped[3], swapped[400] = swapped[400], swapped[3]
	if err := orc.check("field", swapped, want, 0); err == nil {
		t.Fatal("two swapped elements were not caught")
	}

	// The conservation check stands on its own: a result scaled by
	// 1+1e-6 against an equally scaled expectation still breaks it.
	scaled := append([]float64(nil), got[0]...)
	for i := range scaled {
		scaled[i] *= 1 + 1e-6
	}
	if err := orc.check("field", scaled, scaled, 0); err == nil || !strings.Contains(err.Error(), "Σ deg·y") {
		t.Fatalf("a conservation violation was not caught: %v", err)
	}

	if err := orc.check("field", got[1], want, 1); err == nil {
		t.Fatal("field 1 passed as field 0's values")
	}
	if err := checkItems("run", int64(orc.n*2*iters-1), orc.n, 2, iters); err == nil {
		t.Fatal("a missing element update was not caught")
	}
}
