package train

import (
	"testing"

	"repro/internal/dnn"
)

func TestAccuracyOfForwarderMatchesAccuracy(t *testing.T) {
	// AccuracyOf over a reusable Forwarder's pass (the replica pool's
	// path) must agree exactly with Accuracy — the fault-injection delta
	// is the difference of two such measurements, so even a one-sample
	// disagreement would bias every campaign.
	m := dnn.TinyCNN()
	m.InitWeights(42)
	ds := Synthesize(SynthConfig{N: 120, Seed: 9, ProtoSeed: 77})
	want := Accuracy(m, ds)
	f := dnn.NewForwarder(m)
	f.Workers = 1
	if got := AccuracyOf(f.Forward(ds.Images), ds); got != want {
		t.Fatalf("AccuracyOf(Forwarder) = %v, Accuracy = %v", got, want)
	}
	// And again on the reused Forwarder (buffers warm), and from a
	// snapshot of that pass.
	if got := AccuracyOf(f.Forward(ds.Images), ds); got != want {
		t.Fatalf("reused AccuracyOf = %v, want %v", got, want)
	}
	prefix := f.Snapshot()
	if got := AccuracyOf(f.ForwardFrom(ds.Images, prefix, 2), ds); got != want {
		t.Fatalf("AccuracyOf from conv2 = %v, want %v", got, want)
	}
	if got := 1 - AccuracyOf(f.Forward(ds.Images), ds); got != Error(m, ds) {
		t.Fatalf("1 - AccuracyOf = %v, Error = %v", got, Error(m, ds))
	}
}
