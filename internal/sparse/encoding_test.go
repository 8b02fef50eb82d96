package sparse

import (
	"slices"
	"strings"
	"testing"
)

// testCentroids is a centroid table for valueBits-wide cluster indices:
// index 0 is the pruned zero, the rest spread over [-1, 1], so value
// order and magnitude order disagree the way k-means tables do.
func testCentroids(valueBits int) []float32 {
	c := make([]float32, 1<<uint(valueBits))
	for i := 1; i < len(c); i++ {
		c[i] = float32(i)/float32(len(c)-1)*2 - 1
	}
	return c
}

// TestKindStreamsMatchEncoders pins the stream-name table to the
// encoders: for every kind, Kind.Streams lists exactly the names of the
// streams Encode emits, in stream order.
func TestKindStreamsMatchEncoders(t *testing.T) {
	idx := randomIndices(6, 37, 0.6, 4, 31)
	for _, kind := range append(slices.Clone(Kinds), Kind24) {
		enc := Must(Encode(kind, idx, 6, 37, 4, testCentroids(4)))
		var got []string
		for _, s := range enc.Streams() {
			got = append(got, s.Name)
		}
		if want := kind.Streams(); !slices.Equal(got, want) {
			t.Errorf("%v: encoder emits %v, table says %v", kind, got, want)
		}
	}
	if n := KindCSR.Streams(); len(n) != 3 || n[2] != "rowcount" {
		t.Errorf("CSR names %v", n)
	}
	if n := KindBitMaskIdxSync.Streams(); len(n) != 3 || n[2] != "idxsync" {
		t.Errorf("BitM+IdxSync names %v", n)
	}
	if n := Kind(99).Streams(); n != nil {
		t.Errorf("unknown kind streams %v, want nil", n)
	}
}

func TestParseKind(t *testing.T) {
	for _, kind := range append(slices.Clone(Kinds), Kind24) {
		if got, err := ParseKind(kind.String()); err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", kind.String(), got, err, kind)
		}
	}
	// Every spelling the CLI flags and the wire decoder accepted before
	// the parsers merged, plus case and surrounding spaces.
	legacy := map[string]Kind{
		"dense": KindDense, "p+c": KindDense, "P+C": KindDense,
		"csr": KindCSR, "CSR": KindCSR, " csr ": KindCSR,
		"bitmask": KindBitMask, "BitMask": KindBitMask,
		"idxsync": KindBitMaskIdxSync, "bitmask+idxsync": KindBitMaskIdxSync,
		"bitm+idxsync": KindBitMaskIdxSync, "BitM+IdxSync": KindBitMaskIdxSync,
		"24": Kind24, "2:4": Kind24,
	}
	for name, want := range legacy {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	names := KindNames()
	if !slices.IsSorted(names) {
		t.Errorf("KindNames not sorted: %v", names)
	}
	for _, bad := range []string{"", "  ", "wavelets", "2-4", "csr2"} {
		_, err := ParseKind(bad)
		if err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
			continue
		}
		for _, n := range names {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("ParseKind(%q) error %q omits %q", bad, err, n)
			}
		}
	}
}

func TestEncode24NeedsCentroids(t *testing.T) {
	idx := randomIndices(4, 8, 0.3, 4, 5)
	if _, err := Encode(Kind24, idx, 4, 8, 4, nil); err == nil {
		t.Error("Encode(Kind24) accepted a nil centroid table")
	}
	// The table decides which two of a group's nonzeros survive: Encode
	// must hand it to Encode24 rather than fall back to index values.
	c := testCentroids(4)
	got := Must(Encode(Kind24, idx, 4, 8, 4, c)).Decode()
	want := Must(Encode24(idx, 4, 8, 4, c)).Decode()
	if !equalU8(got, want) {
		t.Errorf("Encode(Kind24) = %v, Encode24 with centroids = %v", got, want)
	}
	if equalU8(want, Must(Encode24(idx, 4, 8, 4, nil)).Decode()) {
		t.Fatal("fixture too mild: magnitude and index-value selection agree")
	}
	// The lossless kinds ignore the table.
	for _, kind := range Kinds {
		a := Must(Encode(kind, idx, 4, 8, 4, nil)).Decode()
		b := Must(Encode(kind, idx, 4, 8, 4, c)).Decode()
		if !equalU8(a, b) || !equalU8(a, idx) {
			t.Errorf("%v: centroid table changed a lossless encoding", kind)
		}
	}
}
