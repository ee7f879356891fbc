package server

import (
	"bufio"
	"net"
	"strconv"
	"time"
)

// Client is a minimal RESP2 client for anykeyserver: enough for the
// anykeycli net subcommand, the CI smoke job and the integration tests.
// It is not safe for concurrent use; open one Client per goroutine.
type Client struct {
	conn net.Conn
	r    *respReader
	bw   *bufio.Writer

	// pending counts commands sent but not yet received, for pipelining.
	pending int
}

// Dial connects to an anykeyserver at addr ("host:port") with the given
// timeout on the TCP connect (zero means no timeout).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		r:    newRespReader(conn),
		bw:   bufio.NewWriter(conn),
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetDeadline bounds every subsequent read and write on the connection.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// writeCommand renders one command as a RESP array of bulk strings.
func (c *Client) writeCommand(args [][]byte) {
	var num [20]byte
	c.bw.WriteByte('*')
	c.bw.Write(strconv.AppendInt(num[:0], int64(len(args)), 10))
	c.bw.WriteString("\r\n")
	for _, a := range args {
		c.bw.WriteByte('$')
		c.bw.Write(strconv.AppendInt(num[:0], int64(len(a)), 10))
		c.bw.WriteString("\r\n")
		c.bw.Write(a)
		c.bw.WriteString("\r\n")
	}
}

// Send queues one command without flushing — the pipelined half of the API.
// Follow a batch of Sends with Flush and matching Receives.
func (c *Client) Send(args ...string) error {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.SendBytes(bs)
}

// SendBytes is Send for callers that already hold byte slices.
func (c *Client) SendBytes(args [][]byte) error {
	c.writeCommand(args)
	c.pending++
	return nil
}

// Flush pushes every queued command onto the wire.
func (c *Client) Flush() error { return c.bw.Flush() }

// Receive reads one reply for a previously Sent command.
func (c *Client) Receive() (Reply, error) {
	rp, err := c.r.ReadReply()
	if err == nil && c.pending > 0 {
		c.pending--
	}
	return rp, err
}

// Pending reports queued-but-unanswered commands.
func (c *Client) Pending() int { return c.pending }

// Do sends one command, flushes, and reads its reply — the synchronous half
// of the API. An error reply is returned as a Reply with Kind '-', not as
// an error; the error return covers transport and protocol failures only.
func (c *Client) Do(args ...string) (Reply, error) {
	if err := c.Send(args...); err != nil {
		return Reply{}, err
	}
	return c.flushReceive()
}

// DoBytes is Do for callers that already hold byte slices.
func (c *Client) DoBytes(args [][]byte) (Reply, error) {
	if err := c.SendBytes(args); err != nil {
		return Reply{}, err
	}
	return c.flushReceive()
}

func (c *Client) flushReceive() (Reply, error) {
	if err := c.Flush(); err != nil {
		return Reply{}, err
	}
	return c.Receive()
}
