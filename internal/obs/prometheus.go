package obs

import (
	"fmt"
	"io"
	"strings"
)

// Exposition builds a body in Prometheus text exposition format 0.0.4.
// The service's /metrics?format=prometheus and dls-node's -metrics-addr
// endpoint both render through it. The format is hand-written: a few
// dozen families do not justify a client-library dependency. Every
// family opens with HELP and TYPE headers so a scraper's metadata view
// is complete.
type Exposition struct {
	b strings.Builder
}

// Family opens a metric family: its HELP and TYPE header lines.
func (e *Exposition) Family(name, help, typ string) {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line. labels is the rendered label set
// without braces (`pool="p",kind="drop"`), or "" for none.
func (e *Exposition) Sample(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(&e.b, "%s{%s} %g\n", name, labels, v)
	} else {
		fmt.Fprintf(&e.b, "%s %g\n", name, v)
	}
}

// WriteTo writes the accumulated body to w.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, e.b.String())
	return int64(n), err
}
