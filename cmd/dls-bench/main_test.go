package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failingWriter rejects every write, like a full disk or a closed pipe.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestRunReportsWriteError: an experiment table that cannot be written
// is a failed run, not a silent success.
func TestRunReportsWriteError(t *testing.T) {
	for _, opts := range []options{
		{id: "E1", seed: 42, format: "text"},
		{id: "E1", seed: 42, format: "csv"},
		{list: true},
	} {
		if err := run(opts, failingWriter{}); err == nil {
			t.Errorf("run(%+v) to a failing writer returned nil", opts)
		}
	}
}

// TestEmitFullDevice drives the same failure through a real file: every
// write to /dev/full fails with ENOSPC.
func TestEmitFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	if err := emit("/dev/full", options{id: "E1", seed: 42, format: "text"}); err == nil {
		t.Fatal("emit to /dev/full returned nil")
	}
}

// TestEmitWritesFile: -o FILE receives the output, the experiment list
// included (it used to truncate FILE and print to stdout instead).
func TestEmitWritesFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts options
		want []string
	}{
		{"list", options{list: true}, []string{"E1 ", "E12 ", "X1 "}},
		{"csv", options{id: "E1", seed: 42, format: "csv"}, []string{"# E1:"}},
	} {
		path := filepath.Join(t.TempDir(), tc.name)
		if err := emit(path, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range tc.want {
			if !strings.Contains(string(data), w) {
				t.Errorf("%s: output lacks %q:\n%.300s", tc.name, w, data)
			}
		}
	}
	if err := run(options{id: "E99", format: "text"}, failingWriter{}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown id: err = %v", err)
	}
}
