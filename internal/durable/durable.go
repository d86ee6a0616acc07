// Package durable is the shared checksummed NDJSON record framing behind
// every persistence surface in the sweep stack: the service job journal,
// the shared cell store / runner checkpoints and the cross-run ledger.
// Long design-grid sweeps run for hours, exactly the runs where a flipped
// bit in a memoized cell or a torn ledger line silently poisons every
// future replay — so each record line carries a schema tag and a CRC32C
// over its payload, and every reader runs a scan-quarantine-repair pass:
// corrupt or torn records are moved to a `<file>.quarantine` sidecar and
// counted, never trusted and never fatal. Legacy (pre-framing) files are
// read compatibly — an unframed line is accepted when its payload is
// well-formed — and upgraded to framed records whenever a repair rewrite
// happens anyway.
//
// Framed line format (one record per line, still valid NDJSON-adjacent
// text):
//
//	d1 <crc32c-hex8> <payload>\n
//
// where the checksum is CRC32C (Castagnoli) over the payload bytes. Any
// line not starting with a `d<digit> ` tag is treated as a legacy record.
package durable

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// DefaultMaxLine caps one NDJSON record line. bufio.Scanner's silent
// 64 KiB default turned over-long lines into confusing failures; this cap
// is explicit, and crossing it yields a typed, offset-carrying error (or a
// quarantined record, in repair scans) instead of bufio.ErrTooLong.
const DefaultMaxLine = 4 << 20

// frameTag is the current framing version prefix.
const frameTag = "d1 "

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame wraps payload into one framed record line, trailing newline
// included. The payload must not contain a newline (NDJSON invariant);
// callers pass single-line JSON.
func Frame(payload []byte) []byte {
	sum := crc32.Checksum(payload, castagnoli)
	out := make([]byte, 0, len(frameTag)+8+1+len(payload)+1)
	out = append(out, frameTag...)
	var crc [4]byte
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	out = hex.AppendEncode(out, crc[:])
	out = append(out, ' ')
	out = append(out, payload...)
	out = append(out, '\n')
	return out
}

// RecordError is the typed failure of one record during a scan: where the
// record sits (1-based line, byte offset of the line start) and why it was
// rejected. Strict scans return it; repair scans quarantine the record and
// collect it in Stats.Errors.
type RecordError struct {
	Path   string
	Line   int
	Offset int64
	Reason string
	Err    error // underlying cause when there is one (nil for e.g. CRC mismatch)
}

func (e *RecordError) Error() string {
	msg := fmt.Sprintf("durable: %s:%d (byte %d): %s", e.Path, e.Line, e.Offset, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *RecordError) Unwrap() error { return e.Err }

// Rec is one good record from a scan.
type Rec struct {
	Payload []byte
	Legacy  bool  // unframed (pre-upgrade) record, accepted compatibly
	Line    int   // 1-based line number
	Offset  int64 // byte offset of the line start
}

// Stats reports what a scan found.
type Stats struct {
	// Records counts good records returned (framed + legacy).
	Records int
	// Legacy counts the subset of Records that were unframed.
	Legacy int
	// Quarantined counts corrupt, torn or over-long records excluded from
	// the result (and moved to the sidecar, in repair scans).
	Quarantined int
	// Repaired reports that the file was rewritten without the quarantined
	// records (legacy records upgraded to framed in the same pass).
	Repaired bool
	// Errors holds the first few per-record failures, for logs.
	Errors []*RecordError
	// SidecarErr is a best-effort sidecar write failure; the repair itself
	// still proceeded (excising corrupt bytes matters more than archiving
	// them).
	SidecarErr error
}

// Options parameterizes ScanFile.
type Options struct {
	// MaxLine caps one record line (default DefaultMaxLine).
	MaxLine int
	// Validate, when set, accepts or rejects each good payload (framed and
	// legacy); a rejected payload is treated as corrupt. When nil, legacy
	// payloads must at least be valid JSON, framed payloads pass on CRC
	// alone.
	Validate func(payload []byte) error
	// Repair rewrites the file without the quarantined records, appending
	// them to the `<path>.quarantine` sidecar first, and upgrades legacy
	// records to framed in the rewrite. Only the file's single owner may
	// repair: a rewrite races with concurrent appenders.
	Repair bool
	// Strict aborts the scan with a *RecordError at the first corrupt
	// record instead of quarantining it. Mutually exclusive with Repair.
	Strict bool
}

// QuarantinePath returns the sidecar path for a data file.
func QuarantinePath(path string) string { return path + ".quarantine" }

// maxErrors bounds Stats.Errors.
const maxErrors = 8

// ScanFile reads a framed-or-legacy NDJSON file, verifying checksums and
// (optionally) payload validity, and returns the good records in order. A
// missing file is an empty result, not an error. Corrupt records never
// fail the scan unless Strict is set; with Repair they are moved to the
// quarantine sidecar and the file is rewritten without them.
func ScanFile(path string, opt Options) ([]Rec, Stats, error) {
	if opt.MaxLine <= 0 {
		opt.MaxLine = DefaultMaxLine
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, Stats{}, nil
		}
		return nil, Stats{}, fmt.Errorf("durable: opening %s: %w", path, err)
	}
	defer f.Close()

	var (
		recs    []Rec
		stats   Stats
		bad     []badRec
		br      = bufio.NewReaderSize(f, 64*1024)
		offset  int64
		lineno  int
		sawEOF  bool
		anyBad  = func() bool { return stats.Quarantined > 0 }
		fail    = func(re *RecordError) error { return re }
		collect = func(re *RecordError, data []byte, overlong bool) {
			stats.Quarantined++
			if len(stats.Errors) < maxErrors {
				stats.Errors = append(stats.Errors, re)
			}
			bad = append(bad, badRec{err: re, data: data, overlong: overlong})
		}
	)
	for !sawEOF {
		line, truncated, rerr := readLine(br, opt.MaxLine)
		switch rerr {
		case nil:
		case io.EOF:
			sawEOF = true
			if len(line) == 0 {
				continue
			}
			// A final line without its newline: the torn tail of a crashed
			// write. Never trusted, even if it happens to parse.
			if len(bytes.TrimSpace(line)) == 0 {
				offset += int64(len(line))
				continue
			}
			lineno++
			re := &RecordError{Path: path, Line: lineno, Offset: offset, Reason: "torn final record (no newline)"}
			if opt.Strict {
				return nil, stats, fail(re)
			}
			collect(re, line, false)
			offset += int64(len(line))
			continue
		default:
			return nil, stats, fmt.Errorf("durable: reading %s: %w", path, rerr)
		}
		start := offset
		offset += int64(len(line))
		body := chomp(line)
		if len(bytes.TrimSpace(body)) == 0 {
			// Blank lines are the fences torn-write recovery writes on
			// purpose; they carry no data and are not corruption.
			continue
		}
		lineno++
		if truncated {
			re := &RecordError{Path: path, Line: lineno, Offset: start,
				Reason: fmt.Sprintf("record line exceeds %d bytes", opt.MaxLine)}
			if opt.Strict {
				return nil, stats, fail(re)
			}
			collect(re, body, true)
			continue
		}
		payload, legacy, reason := parseLine(body)
		if reason == "" && opt.Validate != nil {
			if verr := opt.Validate(payload); verr != nil {
				reason = "payload rejected"
				if opt.Strict {
					return nil, stats, fail(&RecordError{Path: path, Line: lineno, Offset: start, Reason: reason, Err: verr})
				}
				collect(&RecordError{Path: path, Line: lineno, Offset: start, Reason: reason, Err: verr}, body, false)
				continue
			}
		}
		if reason != "" {
			re := &RecordError{Path: path, Line: lineno, Offset: start, Reason: reason}
			if opt.Strict {
				return nil, stats, fail(re)
			}
			collect(re, body, false)
			continue
		}
		stats.Records++
		if legacy {
			stats.Legacy++
		}
		recs = append(recs, Rec{Payload: payload, Legacy: legacy, Line: lineno, Offset: start})
	}

	if opt.Repair && anyBad() {
		stats.SidecarErr = appendQuarantine(path, bad)
		if err := rewrite(path, recs); err != nil {
			return recs, stats, err
		}
		stats.Repaired = true
	}
	return recs, stats, nil
}

// parseLine splits one non-blank record line into its payload. reason is
// non-empty for corrupt lines.
func parseLine(body []byte) (payload []byte, legacy bool, reason string) {
	if len(body) >= 3 && body[0] == 'd' && body[1] >= '0' && body[1] <= '9' && body[2] == ' ' {
		if !bytes.HasPrefix(body, []byte(frameTag)) {
			return nil, false, fmt.Sprintf("unknown frame version %q", body[:2])
		}
		rest := body[len(frameTag):]
		if len(rest) < 9 || rest[8] != ' ' {
			return nil, false, "malformed frame header"
		}
		sum, err := hex.DecodeString(string(rest[:8]))
		if err != nil {
			return nil, false, "malformed frame checksum"
		}
		payload = rest[9:]
		want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return nil, false, fmt.Sprintf("checksum mismatch (want %08x, got %08x)", want, got)
		}
		return payload, false, ""
	}
	// Legacy unframed record: the only integrity check available is JSON
	// well-formedness.
	if !json.Valid(body) {
		return nil, true, "legacy record is not valid JSON"
	}
	return body, true, ""
}

// chomp strips the trailing newline (and a preceding carriage return).
func chomp(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	return line
}

// readLine reads one newline-terminated line (newline included), capping
// it at max bytes. Over-long lines are consumed to their newline but
// returned truncated with truncated=true, so the scan re-synchronizes on
// the next record instead of aborting. io.EOF with a non-empty line means
// the file ends without a newline (a torn final record).
func readLine(br *bufio.Reader, max int) (line []byte, truncated bool, err error) {
	for {
		chunk, rerr := br.ReadSlice('\n')
		if !truncated {
			room := max + 1 - len(line) // +1 for the newline itself
			if len(chunk) > room {
				truncated = true
				line = append(line, chunk[:room]...)
			} else {
				line = append(line, chunk...)
			}
		}
		switch rerr {
		case nil:
			if chunk[len(chunk)-1] == '\n' {
				if truncated {
					// Keep the invariant that a complete line ends in '\n'
					// even when its middle was dropped.
					line = append(line, '\n')
				}
				return line, truncated, nil
			}
		case bufio.ErrBufferFull:
			// Keep consuming this line.
		case io.EOF:
			return line, truncated, io.EOF
		default:
			return line, truncated, rerr
		}
	}
}

type badRec struct {
	err      *RecordError
	data     []byte
	overlong bool
}

// quarantineEntry is one sidecar line: where the record sat, why it was
// rejected, and its bytes (base64, truncated for over-long lines) for
// forensics.
type quarantineEntry struct {
	Time    time.Time `json:"time"`
	Source  string    `json:"source"`
	Line    int       `json:"line"`
	Offset  int64     `json:"offset"`
	Reason  string    `json:"reason"`
	Len     int       `json:"len"`
	DataB64 string    `json:"data_b64"`
}

// sidecarDataCap bounds how much of a quarantined record the sidecar
// keeps; over-long records are the ones worth truncating.
const sidecarDataCap = 4 << 10

// appendQuarantine appends the rejected records to the sidecar, fsynced.
// Best-effort: a failure is reported but must not block the repair.
func appendQuarantine(path string, bad []badRec) error {
	f, err := os.OpenFile(QuarantinePath(path), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, b := range bad {
		data := b.data
		if len(data) > sidecarDataCap {
			data = data[:sidecarDataCap]
		}
		line, err := json.Marshal(quarantineEntry{
			Time:    time.Now().UTC(),
			Source:  filepath.Base(path),
			Line:    b.err.Line,
			Offset:  b.err.Offset,
			Reason:  b.err.Reason,
			Len:     len(b.data),
			DataB64: base64.StdEncoding.EncodeToString(data),
		})
		if err != nil {
			return err
		}
		w.Write(line)     //nolint:errcheck // surfaced by Flush
		w.WriteByte('\n') //nolint:errcheck // surfaced by Flush
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// rewrite atomically replaces path with the good records, all framed
// (legacy records upgraded in the same pass): write a temp file in the
// same directory, fsync it, rename over the original.
func rewrite(path string, recs []Rec) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".repair-*")
	if err != nil {
		return fmt.Errorf("durable: repairing %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := bufio.NewWriter(tmp)
	for _, r := range recs {
		w.Write(Frame(r.Payload)) //nolint:errcheck // surfaced by Flush
	}
	err = w.Flush()
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: repairing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: repairing %s: %w", path, err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync() //nolint:errcheck // best-effort directory durability
		dir.Close()
	}
	return nil
}
