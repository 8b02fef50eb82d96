package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// axpyAgrees runs axpy and axpyGo on copies of dst (offset by dOff in
// a padded buffer, so the kernel sees unaligned rows and the guard
// words around them show any overrun) and reports the first element
// whose bits differ. NaN inputs compare as NaN: which operand's payload
// survives depends on the operand order the compiler picks for the
// scalar loop.
func axpyAgrees(t *testing.T, dst, src []float32, a float32, dOff, sOff int) {
	t.Helper()
	const guard = 4
	sbuf := make([]float32, sOff+len(src))
	copy(sbuf[sOff:], src)
	run := func(k func(d, s []float32, a float32)) []float32 {
		buf := make([]float32, dOff+len(dst)+guard)
		for i := range buf {
			buf[i] = 1234.5
		}
		copy(buf[dOff:], dst)
		k(buf[dOff:dOff+len(dst)], sbuf[sOff:], a)
		return buf
	}
	got, want := run(axpy), run(axpyGo)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("len=%d dOff=%d sOff=%d a=%v: element %d is %#08x, Go twin %#08x",
				len(dst), dOff, sOff, a, i-dOff, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// TestAxpyMatchesGo: the assembly axpy is bit-identical to its Go twin
// on every length through the 16-, 4- and 1-wide loops (0 to 67), at
// unaligned offsets, on signed zeros, a = ±0, subnormals, infinities
// and mixed magnitudes whose products round.
func TestAxpyMatchesGo(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(1)           // smallest subnormal
	subBig := math.Float32frombits(0x7fffff) // largest subnormal
	inf := float32(math.Inf(1))
	special := []float32{0, negZero, sub, -sub, subBig, -subBig, 1, -1, 1e-38, -3e38, 3e38, 1.0000001, inf, -inf}
	scalars := []float32{0, negZero, 1, -1, 0.1, -3.75, sub, 1e-30, 1e30, 3.4e38}
	for n := 0; n <= 67; n++ {
		mixed := gridRand(2*n, uint64(n+1))
		for i := range mixed {
			// Spread the magnitudes over ±2^±40 so sums cancel and round.
			mixed[i] *= float32(math.Ldexp(1, int(i*7919%81)-40))
		}
		spec := make([]float32, 2*n)
		for i := range spec {
			spec[i] = special[(i*5+n)%len(special)]
		}
		for _, in := range [][]float32{mixed, spec} {
			for _, a := range scalars {
				for off := 0; off < 4; off++ {
					axpyAgrees(t, in[:n], in[n:], a, off, 3-off)
				}
			}
		}
	}
}

// FuzzAxpy compares the assembly axpy with its Go twin bit for bit on
// arbitrary dst/src contents, scalars, lengths and alignments.
func FuzzAxpy(f *testing.F) {
	seed := func(a float32, dOff, sOff uint8, vals ...float32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, math.Float32bits(a))
		b = append(b, dOff, sOff)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(1, 0, 0))
	f.Add(seed(-0.5, 1, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
	f.Add(seed(float32(math.Copysign(0, -1)), 2, 1, 0, float32(math.Copysign(0, -1)), 1e-45, -1e-45))
	f.Add(seed(3e38, 3, 2, 3e38, -3e38, 1, -1, 0.5, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		a := math.Float32frombits(binary.LittleEndian.Uint32(data))
		dOff, sOff := int(data[4]%4), int(data[5]%4)
		var vals []float32
		for b := data[6:]; len(b) >= 4; b = b[4:] {
			vals = append(vals, math.Float32frombits(binary.LittleEndian.Uint32(b)))
		}
		n := len(vals) / 2
		axpyAgrees(t, vals[:n], vals[n:], a, dOff, sOff)
	})
}
