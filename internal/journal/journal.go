// Package journal is the append-only checkpoint file behind both
// cmd/campaign's -journal and the coordinator's shard journals: one
// JSON header line that pins the file to the work it records, then one
// JSON record per line. Results are pure functions of (spec, index),
// so records are never rewritten; a resume reads them back and skips
// their jobs.
//
// The package owns the framing and nothing else:
//
//   - Every line is the json.Marshal bytes of a value plus '\n', and a
//     commit writes every staged line in one write.
//   - On open, a final line without its newline is what a hard kill
//     leaves mid-write. It is cut off (its job simply re-runs), except
//     a header that parsed but lost its newline, which is terminated.
//   - Any other line that does not parse is damage, not a torn write:
//     Open fails and names the file and line.
//   - A failed write is rolled back by truncating the file to its last
//     committed length, so a partial batch never ends up mid-file.
//
// There is no fsync: a committed line survives a process kill, not a
// power loss.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// file is the part of *os.File a journal writes through.
type file interface {
	io.WriteCloser
	Truncate(size int64) error
}

// Journal appends records of type T to one journal file. A nil
// *Journal accepts and drops everything, so a memory-only caller needs
// no branch. A Journal is not safe for concurrent use.
type Journal[T any] struct {
	f    file
	path string
	buf  bytes.Buffer
	enc  *json.Encoder
	// rec holds the record being staged, so encoding it through a
	// pointer does not copy it to the heap.
	rec T
	// size is the file length after the last successful commit.
	size   int64
	writes int
}

// Open opens the journal at path and returns the records it already
// holds, in file order. A missing file is created with hdr as its
// header. An existing file's header is decoded into an H and handed to
// check, whose error (another campaign's journal, say) fails the open.
func Open[T, H any](path string, hdr H, check func(H) error) (*Journal[T], []T, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: creating %s: %w", path, err)
		}
		j := newJournal[T](f, path, 0)
		if err := j.enc.Encode(&hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := j.Commit(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}

	// Everything after the last newline is a torn write, unless there
	// is no newline at all: then the lone line is the header.
	whole := bytes.LastIndexByte(data, '\n') + 1
	lines := data[:whole]
	if whole == 0 {
		lines = data
	}
	recs, err := parse[T](path, lines, check)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reopening %s: %w", path, err)
	}
	j := newJournal[T](f, path, int64(len(lines)))
	switch {
	case whole == 0:
		j.buf.WriteByte('\n')
		err = j.Commit()
	case whole < len(data):
		err = f.Truncate(int64(whole))
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: repairing torn tail of %s: %w", path, err)
	}
	return j, recs, nil
}

func newJournal[T any](f file, path string, size int64) *Journal[T] {
	j := &Journal[T]{f: f, path: path, size: size}
	j.enc = json.NewEncoder(&j.buf)
	return j
}

// parse decodes the header line, checks it, and decodes every further
// line as a record. data holds whole lines only.
func parse[T, H any](path string, data []byte, check func(H) error) ([]T, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("journal: %s is empty (no header)", path)
	}
	line, rest, _ := bytes.Cut(data, []byte{'\n'})
	var hdr H
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("journal: %s has a corrupt header: %w", path, err)
	}
	if err := check(hdr); err != nil {
		return nil, err
	}
	var recs []T
	for n := 2; len(rest) > 0; n++ {
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		var r T
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("journal: %s line %d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// Append stages r and commits it.
func (j *Journal[T]) Append(r T) error {
	if err := j.Stage(r); err != nil {
		return err
	}
	return j.Commit()
}

// Stage encodes r into the pending buffer as one line.
func (j *Journal[T]) Stage(r T) error {
	if j == nil {
		return nil
	}
	j.rec = r
	return j.enc.Encode(&j.rec)
}

// Commit writes every staged line in one write and empties the buffer.
// If the write fails the file is cut back to its last committed length
// and the staged lines are dropped.
func (j *Journal[T]) Commit() error {
	if j == nil || j.buf.Len() == 0 {
		return nil
	}
	n, err := j.f.Write(j.buf.Bytes())
	j.buf.Reset()
	j.writes++
	if err != nil {
		if terr := j.f.Truncate(j.size); terr != nil {
			err = errors.Join(err, terr)
		}
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	j.size += int64(n)
	return nil
}

// Writes counts the writes Commit has issued, header included.
func (j *Journal[T]) Writes() int { return j.writes }

// Close closes the journal file.
func (j *Journal[T]) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
