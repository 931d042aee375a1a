package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzFileSource feeds arbitrary bytes through the edge-list parser and
// checks its safety contract: no panics, every accepted update is
// well-formed (finite delta, vertices inside the index's valid range), and
// accepted updates survive a write→parse round trip unchanged. The seeds
// cover the interesting classes: valid lines, comments, malformed fields,
// NaN/Inf and out-of-range values, duplicate edges, pathological whitespace,
// and — because the source transparently decompresses input that starts with
// the gzip magic number — compressed payloads, bare magic bytes, and
// truncated or corrupt archives.
func FuzzFileSource(f *testing.F) {
	seeds := []string{
		"1 2 0.5\n2 3 -1.25\n",
		"# comment\n\n10 11 3\n",
		"1 2\n",
		"1 2 3 4\n",
		"a b c\n",
		"1 2 NaN\n",
		"1 2 Inf\n3 4 -Inf\n",
		"1 2 1e309\n",
		"-1 2 0.5\n",
		"2147483647 2 0.5\n",
		"99999999999 2 0.5\n",
		"1 2 0x1p-3\n",
		"1 2 0.5\r\n1 2 0.5\n1 2 -0.5\n",
		"\t 1 \t 2 \t 0.5 \t\n",
		"1 1 0.5\n",
		"0 0 0\n",
		strings.Repeat("7 8 1.5\n", 50),
		"1_0 2 0.5\n",
		"+1 +2 +0.5\n",
		// Batch boundaries: empty batches (leading, consecutive, trailing),
		// a single-pair batch, duplicate pairs within one batch, markers with
		// surrounding whitespace, and marker-like lines that must NOT parse
		// as boundaries or updates.
		"%%\n",
		"%%\n%%\n%%\n",
		"1 2 0.5\n%%\n",
		"%%\n3 4 1.5\n%%\n%%\n5 6 -1\n",
		"1 2 0.5\n1 2 0.5\n1 2 -0.25\n%%\n1 2 1\n",
		" %% \n7 8 1\n",
		"%% trailing garbage\n",
		"%%%%\n",
		"1 2 0.5 %%\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// Gzip-framed seeds: the source sniffs the magic number and decompresses
	// transparently, so the fuzzer must also explore compressed valid input,
	// headers followed by garbage, and truncated archives.
	f.Add(gzipBytes(f, "1 2 0.5\n2 3 -1.25\n"))
	f.Add(gzipBytes(f, "# comment\n\n10 11 3\n"))
	f.Add(gzipBytes(f, "1 2 NaN\n"))
	f.Add(gzipBytes(f, "1 2 0.5\n%%\n3 4 1\n%%\n"))
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00, 0xde, 0xad, 0xbe, 0xef})
	f.Add(gzipBytes(f, "1 2 0.5\n")[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewReaderSource("fuzz", strings.NewReader(string(data)))
		var accepted []Update
		cleanEOF := false
		for len(accepted) < 10000 {
			u, err := src.Next()
			if err != nil {
				// io.EOF ends the stream; any other error must identify the
				// source. Either way the source must not panic.
				cleanEOF = errors.Is(err, io.EOF)
				if !cleanEOF && !strings.Contains(err.Error(), "fuzz") {
					t.Fatalf("error does not identify the source: %v", err)
				}
				break
			}
			if math.IsNaN(u.Delta) || math.IsInf(u.Delta, 0) {
				t.Fatalf("parser accepted non-finite delta: %+v", u)
			}
			if u.A < 0 || u.B < 0 || u.A == math.MaxInt32 || u.B == math.MaxInt32 {
				t.Fatalf("parser accepted vertex outside [0, MaxInt32): %+v", u)
			}
			accepted = append(accepted, u)
		}

		// Batch mode must accept exactly the same updates in the same order:
		// "%%" lines only group, never add, drop, or reorder. On malformed
		// input the batch reader stops at the same bad line, so its accepted
		// updates are a prefix of the sequential reader's (it withholds the
		// partial batch the error interrupts). When the sequential loop above
		// stopped at its 10000-update cap rather than at end of input, the
		// batch reader may legitimately read further (a marker-less file is
		// one batch), so only the common prefix is compared.
		capped := len(accepted) >= 10000
		batchSrc := NewReaderSource("fuzz", strings.NewReader(string(data)))
		var batched []Update
		batchErr := error(nil)
		for len(batched) <= len(accepted) {
			b, err := batchSrc.NextBatch()
			if err != nil {
				batchErr = err
				if !errors.Is(err, io.EOF) && !strings.Contains(err.Error(), "fuzz") {
					t.Fatalf("batch error does not identify the source: %v", err)
				}
				break
			}
			batched = append(batched, b.Updates...)
		}
		if !capped && len(batched) > len(accepted) {
			t.Fatalf("batch mode accepted %d updates, sequential %d", len(batched), len(accepted))
		}
		for i := 0; i < min(len(batched), len(accepted)); i++ {
			if batched[i] != accepted[i] {
				t.Fatalf("batch mode diverges at update %d: %+v != %+v", i, batched[i], accepted[i])
			}
		}
		if cleanEOF && !capped && errors.Is(batchErr, io.EOF) && len(batched) != len(accepted) {
			t.Fatalf("batch mode lost updates on clean input: %d != %d", len(batched), len(accepted))
		}

		if len(accepted) == 0 {
			return
		}
		// Round trip: writing the accepted updates and re-reading them must
		// reproduce them exactly (WriteUpdates uses %g, which emits the
		// shortest uniquely-parsing representation).
		var b strings.Builder
		if n, err := WriteUpdates(&b, accepted); err != nil || n != len(accepted) {
			t.Fatalf("WriteUpdates = %d, %v", n, err)
		}
		again, err := Drain(NewReaderSource("roundtrip", strings.NewReader(b.String())))
		if err != nil {
			t.Fatalf("re-parse of written updates failed: %v", err)
		}
		if len(again) != len(accepted) {
			t.Fatalf("round trip lost updates: %d -> %d", len(accepted), len(again))
		}
		for i := range accepted {
			if again[i] != accepted[i] {
				t.Fatalf("round trip changed update %d: %+v -> %+v", i, accepted[i], again[i])
			}
		}
	})
}

// FuzzDocReaderSource feeds arbitrary bytes through the document-line decoder
// into the co-occurrence aggregator, in both decay modes, and checks its
// safety contract: the stream yields batches whose updates name valid
// vertices with finite deltas and whose threshold units carry a finite,
// positive scale, until it ends in an error (io.EOF on clean input) — never
// a panic. The seeds are a recorded document stream plus the decoder's
// rejection classes: a negative time, time going backwards, an entity at the
// index's sentinel, and non-numeric tokens.
func FuzzDocReaderSource(f *testing.F) {
	recorded, err := os.ReadFile(filepath.Join("..", "..", "cmd", "dyndens", "testdata", "docs_small.docs"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	for _, s := range []string{
		"0 1 2 3\n10 2 3 4\n",
		"-5 1 2\n",
		"9 1 2\n3 4 5\n",
		"0 1 2147483647\n",
		"0 1 99999999999\n",
		"0 a b\n",
		"x 1 2\n",
		"0 1\n0\n",
		"0 7 7 7 8\n",
		"# comment\n\n5 1 2 3\n9223372036854775807 1 2\n",
		"0 1 2\n1000000000 1 2 3\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []DecayMode{DecayExact, DecayRescale} {
			cfg := AggregatorConfig{EpochLength: 10, Decay: 0.5, PruneBelow: 0.05, DecayMode: mode}
			agg := MustAggregator(NewDocReaderSource("fuzz", bytes.NewReader(data)), cfg)
			for updates := 0; updates < 100_000; {
				b, err := agg.NextBatch()
				if err != nil {
					break // io.EOF or a rejected line: either ends the stream safely
				}
				if th := b.Threshold; th != nil && (!(th.Scale > 0) || math.IsInf(th.Scale, 0)) {
					t.Fatalf("%s: threshold unit with scale %v", mode, th.Scale)
				}
				for _, u := range b.Updates {
					if math.IsNaN(u.Delta) || math.IsInf(u.Delta, 0) {
						t.Fatalf("%s: non-finite delta: %+v", mode, u)
					}
					if u.A < 0 || u.B < 0 || u.A >= math.MaxInt32 || u.B >= math.MaxInt32 {
						t.Fatalf("%s: update outside the valid vertex range: %+v", mode, u)
					}
				}
				updates += len(b.Updates)
			}
		}
	})
}

// TestParseUpdateRejects pins the parser's rejection classes (the cases the
// fuzz corpus seeds), so a regression fails fast without the fuzzer.
func TestParseUpdateRejects(t *testing.T) {
	bad := []string{
		"1 2",             // missing field
		"1 2 3 4",         // extra field
		"x 2 1",           // non-integer vertex
		"1 2 z",           // non-float delta
		"1 2 NaN",         // NaN poisons scores
		"1 2 Inf",         // +Inf
		"1 2 -Inf",        // -Inf
		"1 2 1e309",       // overflows to +Inf
		"-1 2 1",          // negative vertex
		"2147483647 2 1",  // the index's '*' sentinel
		"99999999999 2 1", // overflows int32
	}
	for _, line := range bad {
		if _, err := ParseUpdate(line); err == nil {
			t.Errorf("ParseUpdate(%q) accepted, want error", line)
		}
	}
	good := map[string]Update{
		"1 2 0.5":            {A: 1, B: 2, Delta: 0.5},
		"+1 +2 +0.5":         {A: 1, B: 2, Delta: 0.5},
		"1 2 0x1p-3":         {A: 1, B: 2, Delta: 0.125},
		"2147483646 0 -1e-9": {A: 2147483646, B: 0, Delta: -1e-9},
	}
	for line, want := range good {
		got, err := ParseUpdate(line)
		if err != nil {
			t.Errorf("ParseUpdate(%q) = %v, want %+v", line, err, want)
			continue
		}
		if got != want {
			t.Errorf("ParseUpdate(%q) = %+v, want %+v", line, got, want)
		}
	}
}
