package main

import (
	"errors"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerDropsPartialRequest pins the header timeout: a client
// that sends part of a request line and then stalls is disconnected
// once readHeaderTimeout passes, instead of holding the connection
// open indefinitely.
func TestHTTPServerDropsPartialRequest(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.NotFoundHandler())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis) // returns http.ErrServerClosed on Close
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// The test's own deadline: well past the server's, so a server that
	// never times the request out fails here rather than hanging.
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for {
		n, err := conn.Read(buf)
		if err == nil {
			t.Logf("server wrote %q before closing", buf[:n])
			continue
		}
		if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("connection still open %s after a partial request line", time.Since(start).Round(time.Millisecond))
		}
		break
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %s, before the %s header timeout could have fired", waited, readHeaderTimeout)
	}
}
