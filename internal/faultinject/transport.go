package faultinject

import (
	"context"

	"powl/internal/rdf"
	"powl/internal/transport"
)

// Transport wraps t so that every Send/Recv first consults the injector.
// Compose with transport.NewRetry to exercise the recovery path:
//
//	tr := transport.NewRetry(faultinject.Transport(inner, inj), transport.RetryConfig{})
type Transport struct {
	Inner transport.Transport
	Inj   *Injector
}

// Name implements transport.Transport.
func (f *Transport) Name() string { return f.Inner.Name() + "+fault" }

// Send implements transport.Transport. A scheduled connection drop
// (DropRound/DropFrom/DropTo) is applied to the inner transport's
// LinkDropper just before the matching send, so the send itself runs over
// the severed link and must reconnect.
func (f *Transport) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	if f.Inj.DropConn(round, from, to) {
		if d, ok := f.Inner.(transport.LinkDropper); ok {
			d.DropLink(from, to)
		}
	}
	if err := f.Inj.Send(); err != nil {
		return err
	}
	return f.Inner.Send(ctx, round, from, to, ts)
}

// Recv implements transport.Transport.
func (f *Transport) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	if err := f.Inj.Recv(); err != nil {
		return nil, err
	}
	return f.Inner.Recv(ctx, round, to)
}

// Close implements transport.Transport.
func (f *Transport) Close() error { return f.Inner.Close() }

// SendLineage forwards to the inner transport's LineageCarrier; without one
// the records go nowhere, as they would over the inner transport alone.
func (f *Transport) SendLineage(ctx context.Context, round, from, to int, lins []rdf.Lineage) error {
	if lc, ok := f.Inner.(transport.LineageCarrier); ok {
		return lc.SendLineage(ctx, round, from, to, lins)
	}
	return nil
}

// RecvLineage forwards to the inner transport's LineageCarrier, if any.
func (f *Transport) RecvLineage(ctx context.Context, round, to int) ([]rdf.Lineage, error) {
	if lc, ok := f.Inner.(transport.LineageCarrier); ok {
		return lc.RecvLineage(ctx, round, to)
	}
	return nil, nil
}

// DropLink forwards to the inner transport's LinkDropper, if any.
func (f *Transport) DropLink(from, to int) bool {
	if d, ok := f.Inner.(transport.LinkDropper); ok {
		return d.DropLink(from, to)
	}
	return false
}
