package mem_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/mem"
)

// TestUnitTransferTable: the unit's precomputed transfer cycles equal the
// Timing formula for every word count 0…128 and beyond the table, across
// every Section 5 transfer rate and Section 3 cycle time; a zero-value
// unit, which has no table, agrees too.
func TestUnitTransferTable(t *testing.T) {
	for _, rate := range experiments.TransferRates {
		for _, cy := range experiments.CycleTimesNs {
			tm := mem.Config{ReadNs: 180, WriteNs: 100, RecoverNs: 120, Transfer: rate}.MustQuantize(cy)
			u, zero := mem.NewUnit(tm), &mem.Unit{Timing: tm}
			for _, words := range append(seq(0, 128), 129, 192, 255, 256, 257, 512, 1000) {
				want := int64(tm.TransferCycles(words))
				if got := u.TransferCycles(words); got != want {
					t.Errorf("rate %v @%dns: table transfer(%dW) = %d, formula %d", rate, cy, words, got, want)
				}
				if got := zero.TransferCycles(words); got != want {
					t.Errorf("rate %v @%dns: zero-unit transfer(%dW) = %d, formula %d", rate, cy, words, got, want)
				}
			}
		}
	}
}

// TestUnitWriteTimesMatchFormula: StartWrite, which reads the table, holds
// the writer for WriteAcceptCycles and the unit for WriteBusyCycles plus
// recovery, at every tabled and untabled size.
func TestUnitWriteTimesMatchFormula(t *testing.T) {
	for _, rate := range experiments.TransferRates {
		tm := mem.UniformLatency(260, rate).MustQuantize(40)
		for _, words := range seq(1, 130) {
			u := mem.NewUnit(tm)
			if got, want := u.StartWrite(0, words), int64(tm.WriteAcceptCycles(words)); got != want {
				t.Errorf("rate %v: write(%dW) accepted at %d, want %d", rate, words, got, want)
			}
			if got, want := u.FreeAt, int64(tm.WriteBusyCycles(words)+tm.RecoveryCycles); got != want {
				t.Errorf("rate %v: write(%dW) frees the unit at %d, want %d", rate, words, got, want)
			}
		}
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for w := lo; w <= hi; w++ {
		out = append(out, w)
	}
	return out
}
