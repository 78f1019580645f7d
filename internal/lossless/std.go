package lossless

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"io"
)

// Deflate wraps one of the standard library's DEFLATE containers — gzip or
// zlib, matching the Python modules of those names the paper benchmarks —
// at the default compression level.
type Deflate struct {
	name      string
	newWriter func(io.Writer) io.WriteCloser
	newReader func(io.Reader) (io.ReadCloser, error)
}

// NewGzip returns the "gzip" codec.
func NewGzip() *Deflate {
	return &Deflate{
		name:      "gzip",
		newWriter: func(w io.Writer) io.WriteCloser { return gzip.NewWriter(w) },
		newReader: func(r io.Reader) (io.ReadCloser, error) { return gzip.NewReader(r) },
	}
}

// NewZlib returns the "zlib" codec.
func NewZlib() *Deflate {
	return &Deflate{
		name:      "zlib",
		newWriter: func(w io.Writer) io.WriteCloser { return zlib.NewWriter(w) },
		newReader: zlib.NewReader,
	}
}

// Name implements Codec.
func (c *Deflate) Name() string { return c.name }

// Compress implements Codec.
func (c *Deflate) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := c.newWriter(&buf)
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress implements Codec.
func (c *Deflate) Decompress(src []byte) ([]byte, error) {
	r, err := c.newReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}
