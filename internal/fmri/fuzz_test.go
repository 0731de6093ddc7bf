package fmri

import (
	"bytes"
	"testing"
)

// FuzzEpochParse drives the epoch-file parser with arbitrary text.
// readEpochs must never panic, and every design it accepts must satisfy
// the per-epoch field invariants it promises.
func FuzzEpochParse(f *testing.F) {
	f.Add([]byte("# subject label start len\n0 0 0 4\n0 1 4 4\n1 0 8 4\n"))
	f.Add([]byte(""))
	f.Add([]byte("0 1 2\n"))                     // too few fields
	f.Add([]byte("a b c d\n"))                   // non-numeric
	f.Add([]byte("0 0 -1 4\n"))                  // negative start
	f.Add([]byte("0 0 0 0\n"))                   // empty epoch
	f.Add([]byte("-1 0 0 4\n"))                  // negative subject
	f.Add([]byte("# only comments\n\n  \n"))     // nothing but noise
	f.Add([]byte("9999999999999999999 0 0 4\n")) // integer overflow

	f.Fuzz(func(t *testing.T, data []byte) {
		eps, err := readEpochs(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(eps) == 0 {
			t.Fatal("nil error with zero epochs")
		}
		if len(eps) > maxEpochs {
			t.Fatalf("accepted %d epochs over budget %d", len(eps), maxEpochs)
		}
		for i, e := range eps {
			if e.Subject < 0 || e.Start < 0 || e.Len <= 0 {
				t.Fatalf("accepted invalid epoch %d: %+v", i, e)
			}
		}
	})
}
