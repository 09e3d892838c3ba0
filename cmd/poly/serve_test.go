package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"polystyrene/internal/serve"
)

// syncBuffer is an io.Writer safe to read while run writes from
// another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRe = regexp.MustCompile(`on (http://[^\s]+)`)

// waitFor polls the buffer until re matches or the deadline passes.
func waitFor(t *testing.T, buf *syncBuffer, re *regexp.Regexp, what string) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s did not appear within 10s; output so far:\n%s", what, buf.String())
	return nil
}

// serveRun runs the serve subcommand with args.
func serveRun(args []string, out io.Writer) error {
	return run(append([]string{"serve"}, args...), out, io.Discard)
}

func TestSelftestSmoke(t *testing.T) {
	var buf syncBuffer
	err := serveRun([]string{"-selftest", "-duration", "900ms", "-w", "16", "-h", "8", "-workers", "2"}, &buf)
	if err != nil {
		t.Fatalf("selftest failed: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"phase calm", "phase catastrophe+recovery", "phase churn", "selftest ok", "p99="} {
		if !strings.Contains(out, want) {
			t.Fatalf("selftest output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " 0 qps") {
		t.Fatalf("selftest reported zero QPS:\n%s", out)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-auto-checkpoint-every", "5"},                  // needs -checkpoint-dir
		{"-resume-latest"},                               // needs -checkpoint-dir
		{"-profiles", "64", "-checkpoint-dir", "/tmp/x"}, // profiles can't checkpoint
		{"-fail-at", "10", "-reinject-at", "5"},          // reinject before fail
		{"-no-such-flag"},                                // unknown flag
	}
	for _, args := range cases {
		var buf syncBuffer
		if err := serveRun(args, &buf); err == nil {
			t.Fatalf("run(%v) accepted bad flags", args)
		}
	}
}

func TestServeScenarioSigtermDrain(t *testing.T) {
	guardSigterm(t)
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- serveRun([]string{"-addr", "127.0.0.1:0", "-w", "16", "-h", "8",
			"-interval", "1ms"}, &buf)
	}()
	m := waitFor(t, &buf, addrRe, "listen address")
	base := m[1]

	var health struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	getOK(t, base+"/healthz", &health)
	if health.Status != "ok" || health.Epoch == 0 {
		t.Fatalf("healthz = %+v", health)
	}
	var lr struct {
		Found bool `json:"found"`
		Node  int  `json:"node"`
		Epoch int  `json:"epoch"`
	}
	getOK(t, base+"/lookup?q=3.5,2.5", &lr)
	if !lr.Found || lr.Epoch == 0 {
		t.Fatalf("lookup = %+v", lr)
	}

	sigterm(t)
	if err := <-done; err != nil {
		t.Fatalf("serve run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "# drained after") || !strings.Contains(out, "# stopped at round") {
		t.Fatalf("missing drain report:\n%s", out)
	}
}

func TestServeProfilesSigtermDrain(t *testing.T) {
	guardSigterm(t)
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- serveRun([]string{"-addr", "127.0.0.1:0", "-profiles", "64",
			"-interval", "1ms"}, &buf)
	}()
	m := waitFor(t, &buf, addrRe, "listen address")
	base := m[1]
	if !strings.Contains(buf.String(), "64 profile points") {
		t.Fatalf("unexpected profiles banner:\n%s", buf.String())
	}

	// Query a community core: 24-dim Hamming point.
	q := make([]string, 24)
	for i := range q {
		q[i] = "0"
	}
	for i := 6; i < 12; i++ {
		q[i] = "1" // community 1's core topics
	}
	var lr struct {
		Found    bool    `json:"found"`
		Distance float64 `json:"distance"`
	}
	getOK(t, base+"/lookup?q="+strings.Join(q, ","), &lr)
	if !lr.Found || lr.Distance > 2 {
		t.Fatalf("profile lookup = %+v, want a community-1 member (distance <= 2)", lr)
	}
	var st struct {
		Points int `json:"points"`
		Live   int `json:"live"`
	}
	getOK(t, base+"/stats", &st)
	if st.Points != 64 || st.Live != 64 {
		t.Fatalf("stats = %+v, want 64 points / 64 live", st)
	}

	sigterm(t)
	if err := <-done; err != nil {
		t.Fatalf("profiles run failed: %v\n%s", err, buf.String())
	}
}

func TestServeSigtermSavesCheckpoint(t *testing.T) {
	guardSigterm(t)
	dir := t.TempDir()
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- serveRun([]string{"-addr", "127.0.0.1:0", "-w", "16", "-h", "8",
			"-interval", "1ms", "-checkpoint-dir", dir, "-auto-checkpoint-every", "5"}, &buf)
	}()
	waitFor(t, &buf, addrRe, "listen address")
	// Let a few rounds (and at least one auto generation) happen.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ents, _ := os.ReadDir(dir)
		if len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint generation appeared within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sigterm(t)
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "# checkpoint gen-") {
		t.Fatalf("no final checkpoint message:\n%s", buf.String())
	}

	// A resumed service starts from the saved round, not round 0.
	guardSigterm(t)
	var buf2 syncBuffer
	done2 := make(chan error, 1)
	go func() {
		done2 <- serveRun([]string{"-addr", "127.0.0.1:0", "-w", "16", "-h", "8",
			"-interval", "1ms", "-checkpoint-dir", dir, "-resume-latest"}, &buf2)
	}()
	waitFor(t, &buf2, regexp.MustCompile(`# resumed from (\S+) at round (\d+)`), "resume banner")
	waitFor(t, &buf2, addrRe, "listen address")
	sigterm(t)
	if err := <-done2; err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, buf2.String())
	}
}

func getOK(t *testing.T, url string, into any) {
	t.Helper()
	var lastErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(5 * time.Millisecond)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(into)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil {
			return
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("GET %s never returned 200: %v", url, lastErr)
}

// TestServiceDropsSlowHeader is the slow-loris check: a client that sends
// half a request header and then stalls is disconnected once the header
// timeout passes, instead of holding its connection forever.
func TestServiceDropsSlowHeader(t *testing.T) {
	defer func(d time.Duration) { headerTimeout = d }(headerTimeout)
	headerTimeout = 100 * time.Millisecond
	svc, err := startService("127.0.0.1:0", serve.NewPublisher(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.drain(io.Discard)

	conn, err := net.Dial("tcp", svc.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: poly\r\n"); err != nil {
		t.Fatal(err)
	}
	// Whatever the server writes before it hangs up, the connection must
	// end long before this client-side deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	_, err = io.Copy(io.Discard, conn)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("connection with a half-sent header still open after %v", time.Since(start))
	}
}

// TestServiceRejectsOversizedHeader: a request header past maxHeaderBytes
// gets 431 Request Header Fields Too Large.
func TestServiceRejectsOversizedHeader(t *testing.T) {
	svc, err := startService("127.0.0.1:0", serve.NewPublisher(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.drain(io.Discard)

	conn, err := net.Dial("tcp", svc.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	big := strings.Repeat("x", 4*maxHeaderBytes)
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: poly\r\nX-Big: "+big+"\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header answered %d, want 431", resp.StatusCode)
	}
}
