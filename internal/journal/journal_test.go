package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	Job  int    `json:"job"`
	Note string `json:"note,omitempty"`
}

type header struct {
	Name string `json:"name"`
}

func openTest(path string) (*Journal[rec], []rec, error) {
	return Open[rec](path, header{Name: "test"}, func(h header) error {
		if h.Name != "test" {
			return fmt.Errorf("journal of %q, want %q", h.Name, "test")
		}
		return nil
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestFileBytes: the header and every record are their json.Marshal
// bytes plus a newline, however the records were batched.
func TestFileBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, prior, err := openTest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh journal holds %v", prior)
	}
	recs := []rec{{Job: 0}, {Job: 1, Note: "<&>"}, {Job: 2}}
	if err := j.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[1:] {
		if err := j.Stage(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if j.Writes() != 3 {
		t.Errorf("%d writes, want 3 (header, one append, one batch)", j.Writes())
	}
	j.Close()

	var want bytes.Buffer
	for _, v := range []any{header{Name: "test"}, recs[0], recs[1], recs[2]} {
		b, _ := json.Marshal(v)
		want.Write(append(b, '\n'))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file bytes\n got %q\nwant %q", got, want.Bytes())
	}
	_, back, err := openTest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("reloaded %v, want %v", back, recs)
	}
}

// TestOpenErrors: a foreign header fails with the caller's message; an
// empty file, a corrupt header and a corrupt record line fail naming
// the file.
func TestOpenErrors(t *testing.T) {
	hdr := `{"name":"test"}` + "\n"
	cases := []struct{ name, data, want string }{
		{"foreign", `{"name":"other"}` + "\n", `journal of "other"`},
		{"empty", "", "is empty (no header)"},
		{"corrupt header", "{\"name\n", "corrupt header"},
		{"corrupt record", hdr + `{"job":1}` + "\nnot json\n" + `{"job":2}` + "\n", "line 3"},
		{"blank line", hdr + "\n" + `{"job":2}` + "\n", "line 2"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := openTest(path)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
			continue
		}
		if c.name != "foreign" && !strings.Contains(err.Error(), path) {
			t.Errorf("%s: err %q does not name the file", c.name, err)
		}
	}
}

// partialFile writes half of the next write and then fails it, as a
// full disk does mid-batch.
type partialFile struct {
	file
	fail bool
}

func (p *partialFile) Write(b []byte) (int, error) {
	if !p.fail {
		return p.file.Write(b)
	}
	p.fail = false
	n, _ := p.file.Write(b[:len(b)/2])
	return n, errors.New("disk full")
}

// TestCommitRollsBackFailedWrite: a commit whose write fails leaves
// the file at its last committed length, and the next commit reloads
// cleanly with every committed record.
func TestCommitRollsBackFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := openTest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{Job: 0}); err != nil {
		t.Fatal(err)
	}
	committed := fileSize(t, path)

	j.f = &partialFile{file: j.f, fail: true}
	for _, r := range []rec{{Job: 1}, {Job: 2}} {
		if err := j.Stage(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("failed write returned %v", err)
	}
	if got := fileSize(t, path); got != committed {
		t.Fatalf("after a failed write the file is %d bytes, want the committed %d", got, committed)
	}

	if err := j.Append(rec{Job: 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, back, err := openTest(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []rec{{Job: 0}, {Job: 3}}; !reflect.DeepEqual(back, want) {
		t.Fatalf("reloaded %v, want %v", back, want)
	}
}

// TestNilJournal: a nil journal is memory-only and drops everything.
func TestNilJournal(t *testing.T) {
	var j *Journal[rec]
	if err := j.Append(rec{Job: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournalLoad: Open never panics on any file, and whatever it
// accepts it repairs without losing a record — appending one record
// and reopening returns the earlier records plus that one.
func FuzzJournalLoad(f *testing.F) {
	hdr := `{"name":"test"}`
	f.Add([]byte(hdr + "\n" + `{"job":0}` + "\n" + `{"job":1,"note":"x"}` + "\n"))
	f.Add([]byte(hdr + "\n" + `{"job":0}` + "\n" + `{"job":1,"no`))
	f.Add([]byte(hdr))
	f.Add([]byte(hdr + "\n" + `{"job":1,"no{"job":1}` + "\n"))
	f.Add([]byte{})
	f.Add([]byte(hdr + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, prior, err := openTest(path)
		if err != nil {
			return
		}
		added := rec{Job: 99, Note: "added"}
		if err := j.Append(added); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, again, err := openTest(path)
		if err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		j.Close()
		if want := append(prior, added); !reflect.DeepEqual(again, want) {
			t.Fatalf("reopen returned %v, want %v", again, want)
		}
	})
}
