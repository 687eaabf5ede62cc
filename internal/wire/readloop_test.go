package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestReadLoopEndings: the loop hands datagrams to handle, does not
// count idle poll timeouts as retries, and ends with nil on cancellation
// and on close, and with handle's own error otherwise.
func TestReadLoopEndings(t *testing.T) {
	listen := func() *net.UDPConn {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	stop := errors.New("stop")
	for _, c := range []struct {
		name string
		end  func(conn *net.UDPConn, cancel context.CancelFunc)
		want error
	}{
		{"cancel", func(_ *net.UDPConn, cancel context.CancelFunc) { cancel() }, nil},
		{"close", func(conn *net.UDPConn, _ context.CancelFunc) { conn.Close() }, nil},
		{"handle error", func(conn *net.UDPConn, _ context.CancelFunc) {
			conn.WriteToUDP([]byte("stop"), conn.LocalAddr().(*net.UDPAddr))
		}, stop},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn := listen()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			retries, got := 0, make(chan string, 1)
			done := make(chan error, 1)
			go func() {
				done <- ReadLoop(ctx, conn, func() { retries++ }, func(dg []byte, _ *net.UDPAddr) error {
					if string(dg) == "stop" {
						return stop
					}
					got <- string(dg)
					return nil
				})
			}()
			conn.WriteToUDP([]byte("hello"), conn.LocalAddr().(*net.UDPAddr))
			if s := <-got; s != "hello" {
				t.Fatalf("handled %q, want hello", s)
			}
			time.Sleep(pollInterval + 50*time.Millisecond) // at least one idle poll
			c.end(conn, cancel)
			select {
			case err := <-done:
				if err != c.want {
					t.Fatalf("ReadLoop returned %v, want %v", err, c.want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("ReadLoop did not return")
			}
			if retries != 0 {
				t.Fatalf("%d retries counted on a healthy socket", retries)
			}
		})
	}
}
