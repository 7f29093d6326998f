package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/quartz-emu/quartz/internal/sim"
)

// fullRecord returns a record with every field populated, varied by i, so
// round-trip tests cover the whole schema.
func fullRecord(i int) EpochRecord {
	t := sim.Time(i+1) * sim.Millisecond
	return EpochRecord{
		PID: i%3 + 1, TID: i % 5, Thread: fmt.Sprintf("worker-%d", i%4),
		Start: t, End: t + sim.Millisecond,
		Reason:      []string{"max", "sync", "end"}[i%3],
		StallCycles: uint64(1000 * (i + 1)), L3Hit: uint64(10 * i),
		L3MissLocal: uint64(900 + i), L3MissRemote: uint64(i % 7),
		LDMStallCycles: 123.25 * float64(i+1),
		Stores:         uint64(2000 * i), StoreMissLocal: uint64(800 + i),
		StoreMissRem: uint64(i % 5),
		WriteDelay:   sim.Time(i%4) * sim.Microsecond,
		Delay:        sim.Time(i) * sim.Microsecond,
		Injected:     sim.Time(i) * sim.Microsecond / 2,
		InjectStart:  t + sim.Millisecond,
		InjectEnd:    t + sim.Millisecond + sim.Time(i)*sim.Microsecond/2,
		Overhead:     sim.Time(i%10) * sim.Nanosecond,
		Carry:        sim.Time(i%3) * sim.Nanosecond,
	}
}

// TestSinkRoundTrip: write through the recorder, reopen, decode — the
// decoded stream must equal the in-memory ledger, for both formats.
func TestSinkRoundTrip(t *testing.T) {
	for _, format := range []SinkFormat{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ledger."+format.String())
			sink, err := NewFileSink(path, SinkOptions{Format: format})
			if err != nil {
				t.Fatal(err)
			}
			const n = 100
			r := New(0)
			if err := r.AttachSink(sink, n); err != nil { // ring holds everything
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				r.EpochClosed(fullRecord(i))
			}
			if err := r.CloseSink(); err != nil {
				t.Fatalf("CloseSink: %v", err)
			}
			got, err := ReadLedger(path)
			if err != nil {
				t.Fatalf("ReadLedger: %v", err)
			}
			want := r.Ledger()
			if len(got) != len(want) {
				t.Fatalf("decoded %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSinkRemovesLedgerBound: with a sink attached nothing is ever dropped —
// the sink holds the complete ledger and memory keeps only the tail ring.
func TestSinkRemovesLedgerBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	sink, err := NewFileSink(path, SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(0)
	const ring = 16
	const n = 200
	if err := r.AttachSink(sink, ring); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.EpochClosed(fullRecord(i))
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("Dropped = %d with sink attached, want 0", got)
	}
	if got := r.Total(); got != n {
		t.Errorf("Total = %d, want %d", got, n)
	}
	tail := r.Ledger()
	if len(tail) != ring {
		t.Fatalf("in-memory tail has %d records, want ring size %d", len(tail), ring)
	}
	for i, rec := range tail {
		if want := uint64(n - ring + i); rec.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d (newest records retained in order)", i, rec.Seq, want)
		}
	}
	if err := r.CloseSink(); err != nil {
		t.Fatal(err)
	}
	disk, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk) != n {
		t.Fatalf("sink holds %d records, want all %d", len(disk), n)
	}
	for i, rec := range disk {
		if rec.Seq != uint64(i) {
			t.Fatalf("disk[%d].Seq = %d: stream must be dense and ordered", i, rec.Seq)
		}
	}
}

// TestAttachSinkFlushesRetained: records closed before the sink attaches
// are flushed into it, so the sink's stream always starts at Seq 0.
func TestAttachSinkFlushesRetained(t *testing.T) {
	r := New(0)
	for i := 0; i < 5; i++ {
		r.EpochClosed(fullRecord(i))
	}
	var buf bytes.Buffer
	if err := r.AttachSink(NewWriterSink(&buf, FormatBinary), 0); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		r.EpochClosed(fullRecord(i))
	}
	if err := r.CloseSink(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("sink has %d records, want 8 (5 pre-attach + 3 post)", len(got))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d", i, rec.Seq)
		}
	}
}

// TestSinkRotation: a tiny rotation budget must produce multiple segments,
// each independently decodable, concatenating to the full ledger in order.
func TestSinkRotation(t *testing.T) {
	for _, format := range []SinkFormat{FormatJSONL, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ledger.out")
			sink, err := NewFileSink(path, SinkOptions{Format: format, RotateBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}
			const n = 300
			for i := 0; i < n; i++ {
				rec := fullRecord(i)
				rec.Seq = uint64(i)
				if err := sink.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := LedgerSegments(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 3 {
				t.Fatalf("only %d segments for %d records at 2KB rotation: %v", len(segs), n, segs)
			}
			for _, seg := range segs {
				st, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				// Rotation must happen at record boundaries, never splitting a
				// frame: every segment decodes cleanly on its own.
				f, err := os.Open(seg)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := DecodeLedger(f)
				f.Close()
				if err != nil {
					t.Fatalf("segment %s (%d bytes) does not decode standalone: %v", seg, st.Size(), err)
				}
				if len(recs) == 0 {
					t.Fatalf("segment %s is empty", seg)
				}
			}
			all, err := ReadLedger(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != n {
				t.Fatalf("reassembled %d records, want %d", len(all), n)
			}
			for i, rec := range all {
				if rec.Seq != uint64(i) {
					t.Fatalf("record %d has Seq %d: segment order broken", i, rec.Seq)
				}
			}
		})
	}
}

// failSink errors after failAfter appends.
type failSink struct {
	n         int
	failAfter int
}

func (s *failSink) Append(EpochRecord) error {
	s.n++
	if s.n > s.failAfter {
		return errors.New("disk full")
	}
	return nil
}
func (s *failSink) Close() error { return nil }

// TestSinkErrorLatched: the first sink error is latched and surfaced by
// SinkErr/CloseSink; recording itself keeps going (tail + metrics).
func TestSinkErrorLatched(t *testing.T) {
	r := New(0)
	if err := r.AttachSink(&failSink{failAfter: 3}, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r.EpochClosed(fullRecord(i))
	}
	if r.SinkErr() == nil {
		t.Fatal("sink error not latched")
	}
	if got := r.Registry().Counter("quartz.epochs.closed").Value(); got != 6 {
		t.Errorf("metrics stopped at %d epochs after sink error, want 6", got)
	}
	if err := r.CloseSink(); err == nil {
		t.Error("CloseSink did not surface the latched error")
	}
}

// TestLedgerSince covers the cursor in both retention modes.
func TestLedgerSince(t *testing.T) {
	t.Run("bounded", func(t *testing.T) {
		r := New(4) // keeps oldest 4 of 10
		for i := 0; i < 10; i++ {
			r.EpochClosed(fullRecord(i))
		}
		recs, total := r.LedgerSince(2)
		if total != 10 {
			t.Errorf("total = %d, want 10", total)
		}
		if len(recs) != 2 || recs[0].Seq != 2 || recs[1].Seq != 3 {
			t.Errorf("since=2 over retained seqs 0-3: got %d records starting at %v", len(recs), recs)
		}
		if recs, _ := r.LedgerSince(100); len(recs) != 0 {
			t.Errorf("since past the end returned %d records", len(recs))
		}
	})
	t.Run("ring", func(t *testing.T) {
		r := New(0)
		if err := r.AttachSink(NewWriterSink(&bytes.Buffer{}, FormatJSONL), 4); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			r.EpochClosed(fullRecord(i))
		}
		// Retained: seqs 6..9. A cursor from 0 jumps to the oldest retained.
		recs, total := r.LedgerSince(0)
		if total != 10 {
			t.Errorf("total = %d, want 10", total)
		}
		if len(recs) != 4 || recs[0].Seq != 6 {
			t.Fatalf("since=0 over ring 6..9: got %d records, first seq %d", len(recs), recs[0].Seq)
		}
		recs, _ = r.LedgerSince(8)
		if len(recs) != 2 || recs[0].Seq != 8 {
			t.Errorf("since=8: got %d records, first %v", len(recs), recs)
		}
	})
}

// TestDecodeLedgerEmptyAndGarbage: edge cases of the sniffing decoder.
func TestDecodeLedgerEmptyAndGarbage(t *testing.T) {
	if recs, err := DecodeLedger(bytes.NewReader(nil)); err != nil || len(recs) != 0 {
		t.Errorf("empty stream: recs=%v err=%v", recs, err)
	}
	if _, err := DecodeLedger(bytes.NewReader([]byte("not a ledger\n"))); err == nil {
		t.Error("garbage stream decoded without error")
	}
	// A truncated binary stream must fail loudly, not silently shorten.
	var buf bytes.Buffer
	s := NewWriterSink(&buf, FormatBinary)
	for i := 0; i < 3; i++ {
		if err := s.Append(fullRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := DecodeLedger(bytes.NewReader(cut)); err == nil {
		t.Error("truncated binary stream decoded without error")
	}
}

// TestDecodeLedgerRejectsWhatJSONCannotCarry: a binary record with a
// non-finite LDMStallCycles or an invalid UTF-8 string is a decode error,
// so every ledger that decodes can be re-encoded as JSONL without loss
// (appendJSONFloat panics on a NaN or an infinity).
func TestDecodeLedgerRejectsWhatJSONCannotCarry(t *testing.T) {
	for name, mutate := range map[string]func(*EpochRecord){
		"nan-stall":      func(r *EpochRecord) { r.LDMStallCycles = math.NaN() },
		"inf-stall":      func(r *EpochRecord) { r.LDMStallCycles = math.Inf(-1) },
		"invalid-thread": func(r *EpochRecord) { r.Thread = "worker-\xff" },
		"invalid-reason": func(r *EpochRecord) { r.Reason = "\xc3" },
	} {
		t.Run(name, func(t *testing.T) {
			rec := fullRecord(0)
			mutate(&rec)
			var buf bytes.Buffer
			if err := NewWriterSink(&buf, FormatBinary).Append(rec); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeLedger(&buf); err == nil {
				t.Error("decoded without error")
			}
		})
	}
}

// TestParseSinkFormat pins the CLI-facing format names.
func TestParseSinkFormat(t *testing.T) {
	if f, err := ParseSinkFormat("jsonl"); err != nil || f != FormatJSONL {
		t.Errorf("jsonl: %v %v", f, err)
	}
	if f, err := ParseSinkFormat("binary"); err != nil || f != FormatBinary {
		t.Errorf("binary: %v %v", f, err)
	}
	if _, err := ParseSinkFormat("csv"); err == nil {
		t.Error("csv accepted")
	}
}
