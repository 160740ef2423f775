package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/smc"
)

// roleFlags are the flags each role accepts, and wiring those of them
// that say where to connect and what to read rather than how to run —
// the parameter tables in README leave them out.
var (
	roleFlags = map[string]string{
		"query":  "allowance heuristic journal journal-sync keybits listen qids schema theta",
		"alice":  "data dp-delta dp-level dp-seed epsilon k method peer-listen query schema",
		"bob":    "data dp-delta dp-level dp-seed epsilon k method peer query schema",
		"worker": "coordinator lanes worker-name",
	}
	wiring = map[string]bool{"listen": true, "query": true, "peer-listen": true, "peer": true, "data": true}
)

// TestRoleFlags: each role's command line defines exactly its own flags,
// and README's parameter tables give the query (Q) and the holders (H)
// the same ones.
func TestRoleFlags(t *testing.T) {
	table := map[string]map[string]bool{"Q": {}, "H": {}}
	for role, want := range roleFlags {
		fs := flag.NewFlagSet(role, flag.ContinueOnError)
		if run, _ := command(role, fs); run == nil {
			t.Fatalf("role %s has no command", role)
		}
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if strings.Join(got, " ") != want {
			t.Errorf("-role %s takes %q, want %q", role, strings.Join(got, " "), want)
		}
		if col := map[string]string{"query": "Q", "alice": "H", "bob": "H"}[role]; col != "" {
			for _, name := range got {
				if !wiring[name] {
					table[col]["-"+name] = true
				}
			}
		}
	}
	if run, _ := command("", flag.NewFlagSet("", flag.ContinueOnError)); run != nil {
		t.Error("a command line without a role has a command")
	}

	// A row's surfaces column lists the surfaces that take its flags; a
	// parenthesised remark names those that do not. A flag spelled for
	// one surface, "`-method` (H)", belongs to that surface alone.
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, params, _ := strings.Cut(string(readme), "### Parameters, on every surface")
	params, _, _ = strings.Cut(params, "\n### ")
	flagCell := regexp.MustCompile("`(-[a-z-]+)[^`]*`(?: \\(([A-Za-z]+)\\))?")
	readmeCols := map[string]map[string]bool{"Q": {}, "H": {}}
	for _, line := range strings.Split(params, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 8 {
			continue
		}
		surfaces, _, _ := strings.Cut(cells[6], "(")
		for _, col := range strings.Fields(surfaces) {
			if readmeCols[col] == nil {
				continue
			}
			for _, m := range flagCell.FindAllStringSubmatch(cells[2], -1) {
				if m[2] == "" || m[2] == col {
					readmeCols[col][m[1]] = true
				}
			}
		}
	}
	for _, col := range []string{"Q", "H"} {
		if a, b := keys(readmeCols[col]), keys(table[col]); a != b {
			t.Errorf("README's %s column has %s; the flag sets %s", col, a, b)
		}
	}
}

func keys(m map[string]bool) string {
	var s []string
	for k := range m {
		s = append(s, k)
	}
	sort.Strings(s)
	return strings.Join(s, " ")
}

// TestWaitingPartiesEndOnCancel: a query waiting for its holders — here,
// for the hello of one that connected — and alice waiting for bob's peer
// link return once their context is cancelled (in main, by SIGINT or
// SIGTERM) instead of waiting on.
func TestWaitingPartiesEndOnCancel(t *testing.T) {
	aCSV, _ := writePairCSVs(t)
	returnsOnCancel := func(name string, run func(context.Context) error, waiting func()) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- run(ctx) }()
		waiting()
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s returned nil after the cancel, want the interruption", name)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s still waits 2 s after the cancel", name)
		}
	}

	q := baseQuery(freePort(t), 0.002)
	returnsOnCancel("the query", func(ctx context.Context) error { return runQuery(ctx, io.Discard, q) }, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c, err := cliutil.DialRetry(ctx, "tcp", q.listen)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
	})

	// Alice dials a stand-in querying party, says hello, and listens for
	// bob, who never comes.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := holder(l.Addr().String(), freePort(t), "", aCSV, "entropy", cliutil.Params{})
	returnsOnCancel("alice", func(ctx context.Context) error { return runHolder(ctx, h, "alice") }, func() {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if m, err := smc.NewNetConn(c).Recv(); err != nil || m.Kind != smc.MsgHello {
			t.Fatalf("alice's first frame: %+v, %v", m, err)
		}
	})
}

// TestBinary builds pprl-party and runs it, which the in-process tests
// cannot: main reads the role, parses that role's flags, and turns a
// signal into a cancel.
func TestBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "pprl-party")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	aCSV, _ := writePairCSVs(t)

	// Another role's flag and a role that does not come first are usage
	// errors, made before anything is dialed: a stand-in querying party
	// counts the dials.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialed := make(chan bool, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			c.Close()
			dialed <- true
		}
	}()
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-role alice -data " + aCSV + " -k 4 -smc-workers 8 -tier-low 0.5 -heuristic maxLast -allowance 0.9 -keybits 4096 -journal x.wal -query " + l.Addr().String() + " -peer-listen 127.0.0.1:0", "-smc-workers"},
		{"-role worker -keybits 4096", "-keybits"},
		{"-role worker -worker-listen " + l.Addr().String(), "-worker-listen"},
		{"-role query -listen 127.0.0.1:0 -k 3", "-k"},
		{"-role query -listen 127.0.0.1:0 -epsilon 2", "-epsilon"},
		// The session has no triage tier: a CLK never crosses to Q.
		{"-role query -listen 127.0.0.1:0 -tier bloom", "-tier"},
		{"-role alice -tier-key x -data " + aCSV + " -query " + l.Addr().String() + " -peer-listen 127.0.0.1:0", "-tier-key"},
		{"-role=query -listen 127.0.0.1:0 -lanes 4", "-lanes"},
		{"-role bob -peer-listen 127.0.0.1:0", "-peer-listen"},
		{"-listen :0 -role query", "-role query|alice|bob|worker"},
		{"-role query -listen 127.0.0.1:0 stray -k 3", `unexpected argument "stray"`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, strings.Fields(tc.args)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("pprl-party %s: %v, want exit 2 naming %s; output:\n%s", tc.args, err, tc.want, out)
		}
	}
	l.Close()
	if len(dialed) > 0 {
		t.Error("a refused command line dialed the querying party")
	}

	// A query waiting for its holders exits on SIGTERM.
	cmd := exec.Command(bin, "-role", "query", "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	if line, err := bufio.NewReader(stderr).ReadString('\n'); !strings.Contains(line, "waiting for two holders") {
		t.Fatalf("query's first line: %q, %v", line, err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("the waiting query outlived SIGTERM by 2 s")
	}
}
