// Package server implements anykeyserver: a RESP2 wire-protocol front end
// for an anykey cluster. Real TCP clients (redis-cli, anykeycli net, any
// Redis client library) speak GET/SET/DEL/MGET/MSET/SCAN against the
// simulated fleet, while a wall-clock bridge maps each request's real
// arrival time onto the owning shard's virtual clock domain and submits it
// through the open-loop engine path. A hand-rolled Prometheus endpoint
// exposes the simulation's internals live.
//
// The package splits into three layers:
//
//   - resp.go: the wire format — a respReader that parses client commands
//     (RESP arrays of bulk strings, plus inline commands) and server
//     replies, and a respWriter that renders every RESP2 reply kind.
//   - bridge.go: the wall-clock→virtual-time bridge — per-shard clock
//     epochs, bounded inflight, shedding and timeouts. It runs each storage
//     operation on the calling connection's goroutine, under the cluster's
//     per-shard lock.
//   - server.go: the TCP accept loop, per-connection command dispatch with
//     pipelining, the metrics/health endpoints and graceful shutdown.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Wire-format limits. A peer that exceeds one gets a protocol error and its
// connection closed — they bound memory per connection, not the database.
const (
	// MaxBulk bounds one bulk string (a key or value) on the wire.
	MaxBulk = 8 << 20
	// MaxArray bounds the element count of one command array.
	MaxArray = 1 << 16
	// maxInline bounds one inline command line, CRLF excluded.
	maxInline = 64 << 10
	// maxReplyDepth bounds array nesting when parsing server replies.
	maxReplyDepth = 8
)

// ErrProtocol reports a malformed RESP frame. Everything the reader rejects
// wraps it, so callers can distinguish "peer speaks garbage" from I/O errors.
var ErrProtocol = errors.New("resp: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// respReader decodes RESP frames from a stream. It reads both directions of
// the protocol: ReadCommand for what clients send, ReadReply for what
// servers answer.
type respReader struct {
	br *bufio.Reader
}

func newRespReader(r io.Reader) *respReader {
	return &respReader{br: bufio.NewReader(r)}
}

// buffered reports how many decoded-but-unread bytes are pending. The
// connection loop uses it to flush replies only when the client has no
// further pipelined commands already in the buffer.
func (r *respReader) buffered() int { return r.br.Buffered() }

// readLine reads one CRLF- (or bare-LF-) terminated line of at most max
// bytes, terminator stripped.
func (r *respReader) readLine(max int) ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Slow path: the line spans the buffer. Accumulate with a hard cap.
		buf := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			if len(buf) > max {
				return nil, protoErrf("line exceeds %d bytes", max)
			}
			line, err = r.br.ReadSlice('\n')
			buf = append(buf, line...)
		}
		line = buf
	}
	if err != nil {
		return nil, err
	}
	if len(line) > max+2 {
		return nil, protoErrf("line exceeds %d bytes", max)
	}
	line = line[:len(line)-1] // strip \n
	line = bytes.TrimSuffix(line, []byte{'\r'})
	return line, nil
}

// ReadCommand parses one client command: a RESP array of bulk strings
// (*N\r\n then N of $len\r\n<bytes>\r\n), or an inline command — a single
// line of space-separated words, as redis-cli sends for hand-typed input.
// Blank inline lines are skipped. Returns io.EOF at a clean end of stream.
func (r *respReader) ReadCommand() ([][]byte, error) {
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if first != '*' {
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			args, err := r.readInline()
			if err != nil {
				return nil, err
			}
			if args == nil {
				continue // blank line between inline commands
			}
			return args, nil
		}
		return r.readArrayOfBulks()
	}
}

func (r *respReader) readInline() ([][]byte, error) {
	line, err := r.readLine(maxInline)
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return nil, nil
	}
	args := make([][]byte, len(fields))
	for i, f := range fields {
		args[i] = append([]byte(nil), f...)
	}
	return args, nil
}

// readArrayOfBulks parses the body of a command array; the leading '*' has
// already been consumed.
func (r *respReader) readArrayOfBulks() ([][]byte, error) {
	n, err := r.readInt(r.readLine(maxInline))
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, protoErrf("null array as command")
	}
	if n == 0 {
		return nil, protoErrf("empty command array")
	}
	if n > MaxArray {
		return nil, protoErrf("array of %d elements exceeds limit %d", n, MaxArray)
	}
	args := make([][]byte, 0, n)
	for i := int64(0); i < n; i++ {
		b, err := r.readBulk()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, protoErrf("null bulk inside command")
		}
		args = append(args, b)
	}
	return args, nil
}

func (r *respReader) readInt(line []byte, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	n, perr := strconv.ParseInt(string(line), 10, 64)
	if perr != nil {
		return 0, protoErrf("bad integer %q", line)
	}
	return n, nil
}

// readBulk parses one $len\r\n<bytes>\r\n frame; the returned slice is a
// fresh copy. A null bulk ($-1) returns (nil, nil).
func (r *respReader) readBulk() ([]byte, error) {
	first, err := r.br.ReadByte()
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	if first != '$' {
		return nil, protoErrf("expected bulk string, got %q", first)
	}
	n, err := r.readInt(r.readLine(maxInline))
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	if n == -1 {
		return nil, nil
	}
	if n < 0 || n > MaxBulk {
		return nil, protoErrf("bulk length %d out of range [0, %d]", n, MaxBulk)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, protoErrf("bulk string missing CRLF terminator")
	}
	return buf[:n:n], nil
}

// unexpectedEOF upgrades a mid-frame EOF: a stream that ends inside a frame
// is a truncation error, not a clean close.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Reply is one decoded RESP2 server reply.
type Reply struct {
	// Kind is the RESP type byte: '+', '-', ':', '$' or '*'.
	Kind byte
	// Str holds the text of a simple string ('+') or error ('-').
	Str string
	// Int holds the value of an integer reply (':').
	Int int64
	// Bulk holds the payload of a bulk string ('$'); nil only when Null.
	Bulk []byte
	// Array holds the elements of an array reply ('*'); nil only when Null.
	Array []Reply
	// Null marks a null bulk ($-1) or null array (*-1).
	Null bool
}

// Err returns the reply as an error when it is an error reply.
func (rp Reply) Err() error {
	if rp.Kind == '-' {
		return errors.New(rp.Str)
	}
	return nil
}

// Text renders the reply for human consumption (anykeycli net's REPL).
func (rp Reply) Text() string {
	switch rp.Kind {
	case '+':
		return rp.Str
	case '-':
		return "(error) " + rp.Str
	case ':':
		return strconv.FormatInt(rp.Int, 10)
	case '$':
		if rp.Null {
			return "(nil)"
		}
		return string(rp.Bulk)
	case '*':
		if rp.Null {
			return "(nil)"
		}
		var sb []byte
		for i, el := range rp.Array {
			if i > 0 {
				sb = append(sb, '\n')
			}
			sb = append(sb, fmt.Sprintf("%d) %s", i+1, el.Text())...)
		}
		return string(sb)
	}
	return fmt.Sprintf("(unknown reply kind %q)", rp.Kind)
}

// ReadReply parses one server reply, recursing into arrays.
func (r *respReader) ReadReply() (Reply, error) {
	return r.readReplyDepth(0)
}

func (r *respReader) readReplyDepth(depth int) (Reply, error) {
	if depth > maxReplyDepth {
		return Reply{}, protoErrf("reply nesting exceeds %d", maxReplyDepth)
	}
	first, err := r.br.ReadByte()
	if err != nil {
		if depth > 0 {
			return Reply{}, unexpectedEOF(err)
		}
		return Reply{}, err
	}
	switch first {
	case '+', '-':
		line, err := r.readLine(maxInline)
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		return Reply{Kind: first, Str: string(line)}, nil
	case ':':
		n, err := r.readInt(r.readLine(maxInline))
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		return Reply{Kind: ':', Int: n}, nil
	case '$':
		if err := r.br.UnreadByte(); err != nil {
			return Reply{}, err
		}
		b, err := r.readBulk()
		if err != nil {
			return Reply{}, err
		}
		if b == nil {
			return Reply{Kind: '$', Null: true}, nil
		}
		return Reply{Kind: '$', Bulk: b}, nil
	case '*':
		n, err := r.readInt(r.readLine(maxInline))
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		if n == -1 {
			return Reply{Kind: '*', Null: true}, nil
		}
		if n < 0 || n > MaxArray {
			return Reply{}, protoErrf("array of %d elements exceeds limit %d", n, MaxArray)
		}
		els := make([]Reply, 0, n)
		for i := int64(0); i < n; i++ {
			el, err := r.readReplyDepth(depth + 1)
			if err != nil {
				return Reply{}, err
			}
			els = append(els, el)
		}
		return Reply{Kind: '*', Array: els}, nil
	}
	return Reply{}, protoErrf("unknown reply type byte %q", first)
}

// respWriter renders RESP2 frames onto a buffered stream. Callers batch
// writes and Flush at pipeline boundaries.
type respWriter struct {
	bw *bufio.Writer
}

func newRespWriter(w io.Writer) *respWriter {
	return &respWriter{bw: bufio.NewWriter(w)}
}

// sanitizeLine strips CR/LF so simple strings and errors stay one frame.
func sanitizeLine(s string) string {
	if !strings.ContainsAny(s, "\r\n") {
		return s
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\r' || s[i] == '\n' {
			b = append(b, ' ')
			continue
		}
		b = append(b, s[i])
	}
	return string(b)
}

func (w *respWriter) WriteSimple(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(sanitizeLine(s))
	w.bw.WriteString("\r\n")
}

func (w *respWriter) WriteError(msg string) {
	w.bw.WriteByte('-')
	w.bw.WriteString(sanitizeLine(msg))
	w.bw.WriteString("\r\n")
}

func (w *respWriter) WriteInt(n int64) {
	w.bw.WriteByte(':')
	w.bw.WriteString(strconv.FormatInt(n, 10))
	w.bw.WriteString("\r\n")
}

// WriteBulk writes a bulk string; nil writes the RESP null bulk ($-1).
func (w *respWriter) WriteBulk(b []byte) {
	if b == nil {
		w.bw.WriteString("$-1\r\n")
		return
	}
	w.bw.WriteByte('$')
	w.bw.WriteString(strconv.Itoa(len(b)))
	w.bw.WriteString("\r\n")
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

func (w *respWriter) WriteBulkString(s string) {
	w.bw.WriteByte('$')
	w.bw.WriteString(strconv.Itoa(len(s)))
	w.bw.WriteString("\r\n")
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

func (w *respWriter) WriteArrayHeader(n int) {
	w.bw.WriteByte('*')
	w.bw.WriteString(strconv.Itoa(n))
	w.bw.WriteString("\r\n")
}

func (w *respWriter) Flush() error { return w.bw.Flush() }
