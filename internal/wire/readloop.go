package wire

import (
	"context"
	"errors"
	"net"
	"time"
)

// pollInterval is the per-read deadline ReadLoop polls with: short
// enough that cancellation is noticed promptly, long enough to stay out
// of the syscall budget. maxBackoff caps the back-off after transient
// read errors.
const (
	pollInterval = 250 * time.Millisecond
	maxBackoff   = 250 * time.Millisecond
)

// ReadLoop reads datagrams from conn, handing each to handle (the slice
// is reused by the next read), until ctx is cancelled or conn is closed
// — both return nil — or handle returns an error, returned as is. It
// starts no goroutine: cancellation is noticed at the next poll timeout.
//
// This is the socket path's one read-error policy, shared by the
// receiver, the sender's ack stream and both directions of the emulated
// link. A poll timeout is not an error; anything else — an ICMP
// unreachable surfacing on a connected socket, momentary resource
// exhaustion — is transient: retried (when non-nil) is called and the
// loop backs off, doubling from 1 ms to the cap, and keeps reading. A
// path that fails and recovers must find its readers still there.
func ReadLoop(ctx context.Context, conn *net.UDPConn, retried func(), handle func(dg []byte, from *net.UDPAddr) error) error {
	buf := make([]byte, 64*1024)
	backoff := time.Millisecond
	for ctx.Err() == nil {
		conn.SetReadDeadline(time.Now().Add(pollInterval))
		n, from, err := conn.ReadFromUDP(buf)
		if err == nil {
			backoff = time.Millisecond
			if err := handle(buf[:n], from); err != nil {
				return err
			}
			continue
		}
		if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
			return nil
		}
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			backoff = time.Millisecond
			continue
		}
		if retried != nil {
			retried()
		}
		Sleep(ctx, backoff)
		backoff = min(2*backoff, maxBackoff)
	}
	return nil
}

// Sleep pauses for d or until ctx is done; it reports whether the full
// pause elapsed.
func Sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
