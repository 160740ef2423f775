package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/testkit"
)

// TestSurfaceParity pushes the shared parameter table through runQuery.
// The listen address has no valid port, so parameters the flags accept
// surface as net.Listen's error and everything else is a refusal made
// before the port was bound.
func TestSurfaceParity(t *testing.T) {
	for _, row := range testkit.ParamRows {
		if row.On&testkit.SurfaceQuery == 0 {
			continue
		}
		if row.Unknown != "" {
			// A flag the query does not take is refused at parse time.
			fs := flag.NewFlagSet("pprl-party -role query", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			command("query", fs)
			err := fs.Parse([]string{"-listen", "127.0.0.1:99999", cliutil.FlagNames(row.Unknown), "0.95"})
			if msg := row.Judge(testkit.SurfaceQuery, err); msg != "" {
				t.Errorf("pprl-party -role query: %s", msg)
			}
			continue
		}
		err := runQuery(context.Background(), nil, queryOptions{listen: "127.0.0.1:99999",
			CLI: cliutil.CLI{Params: row.Params, AllowanceFraction: row.AllowanceFraction}})
		var listenErr *net.OpError
		if errors.As(err, &listenErr) {
			err = nil
		} else if err == nil {
			t.Fatal("runQuery returned without listening")
		}
		if msg := row.Judge(testkit.SurfaceQuery, err); msg != "" {
			t.Errorf("pprl-party -role query: %s", msg)
		}
	}
}

// TestQuerySmallKeyRefusedFirst: a key below the engine's floor is refused
// before the journal exists or the port is bound (the parent created the
// journal, listened and let both holders publish their views first; here
// the port is taken, so the parent's order fails with "address in use").
func TestQuerySmallKeyRefusedFirst(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	wal := filepath.Join(t.TempDir(), "party.wal")
	q := baseQuery(taken.Addr().String(), 0.002)
	q.KeyBits, q.Journal = 32, wal
	if err := runQuery(context.Background(), nil, q); err == nil || !strings.Contains(err.Error(), "-keybits must be at least 64") {
		t.Errorf("err = %v, want the -keybits refusal", err)
	}
	if _, statErr := os.Stat(wal); !errors.Is(statErr, fs.ErrNotExist) {
		t.Errorf("the refused query left a journal behind (stat: %v)", statErr)
	}
}

// TestHolderZeroKRefusedFirst: a k-anonymizing holder refuses -k below 1
// before it reads its data or dials the querying party (the parent read
// the CSV, dialed and said hello, and only then did the session refuse
// k); a dp holder bins at a fixed depth and never looks at k.
func TestHolderZeroKRefusedFirst(t *testing.T) {
	query, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer query.Close()
	aCSV, _ := writePairCSVs(t)
	h := holder(query.Addr().String(), "127.0.0.1:0", "", aCSV, "entropy", cliutil.Params{})
	h.K = 0
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second) // a holder that dialed waits for its peer
	defer cancel()
	if err := runHolder(ctx, h, "alice"); err == nil || !strings.Contains(err.Error(), "-k must be ≥ 1") {
		t.Errorf("-k 0: err = %v, want the -k refusal", err)
	}
	query.(*net.TCPListener).SetDeadline(time.Now().Add(100 * time.Millisecond))
	if c, err := query.Accept(); err == nil {
		c.Close()
		t.Error("the refused holder dialed the querying party")
	}

	h = holder("127.0.0.1:1", "", "127.0.0.1:1", "/nonexistent.csv", "dp", cliutil.Params{Epsilon: 2})
	h.K = 0
	if err := runHolder(context.Background(), h, "bob"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("dp holder with -k 0: err = %v, want the data file's not-found error", err)
	}
}
