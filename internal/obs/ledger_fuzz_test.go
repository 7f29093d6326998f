package obs

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeLedger feeds arbitrary bytes to the format-sniffing ledger
// decoder. It must never panic, and whatever it accepts must survive a
// re-encode: the binary framing carries the decoded records bit for bit (a
// re-encode decodes to records that encode to the very same bytes), and
// JSONL carries them exactly whenever JSON can express them — a finite
// LDMStallCycles and valid UTF-8 strings (a binary record can hold
// neither).
func FuzzDecodeLedger(f *testing.F) {
	for _, format := range []SinkFormat{FormatJSONL, FormatBinary} {
		f.Add(encodeLedger(f, format, []EpochRecord{fullRecord(0), fullRecord(1), fullRecord(2)}))
	}
	f.Add([]byte{})
	f.Add([]byte("not a ledger\n"))
	f.Add([]byte(binaryMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeLedger(bytes.NewReader(data))
		if err != nil {
			return
		}
		bin := encodeLedger(t, FormatBinary, recs)
		again, err := DecodeLedger(bytes.NewReader(bin))
		if err != nil {
			t.Fatalf("binary re-encode of %d records does not decode: %v", len(recs), err)
		}
		if bin2 := encodeLedger(t, FormatBinary, again); !bytes.Equal(bin, bin2) {
			t.Fatalf("binary encoding is not a fixed point:\n%q\n%q", bin, bin2)
		}
		for _, r := range recs {
			if math.IsNaN(r.LDMStallCycles) || math.IsInf(r.LDMStallCycles, 0) ||
				!utf8.ValidString(r.Thread) || !utf8.ValidString(r.Reason) {
				return
			}
		}
		again, err = DecodeLedger(bytes.NewReader(encodeLedger(t, FormatJSONL, recs)))
		if err != nil {
			t.Fatalf("jsonl re-encode of %d records does not decode: %v", len(recs), err)
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("jsonl round trip changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}

// encodeLedger encodes recs as a sink of the given format writes them.
func encodeLedger(t testing.TB, format SinkFormat, recs []EpochRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewWriterSink(&buf, format)
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
