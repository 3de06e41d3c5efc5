package control

import (
	"fmt"

	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
)

// Validate checks a cross-layer message (§3.4) against its kind's
// structural rules before any tier acts on it:
//
//   - SkipMe and RequestMe: S names a plain NF service.
//   - ChangeDefault: S names a plain NF service; T is a port-encoded
//     egress link (Fig. 8's reroute case) or another plain service.
//   - Message (MsgData): Key is non-empty.
//
// Violations and unknown kinds are reported as errors wrapping
// ErrInvalidMessage.
func Validate(m nf.Message) error {
	switch m.Kind {
	case nf.MsgSkipMe, nf.MsgRequestMe:
		return validService(m.Kind.String()+".S", m.S)
	case nf.MsgChangeDefault:
		if err := validService("ChangeDefault.S", m.S); err != nil {
			return err
		}
		if !m.T.IsPort() {
			if err := validService("ChangeDefault.T", m.T); err != nil {
				return err
			}
			if m.T == m.S {
				return fmt.Errorf("%w: ChangeDefault %s -> itself", ErrInvalidMessage, m.S)
			}
		}
		return nil
	case nf.MsgData:
		if m.Key == "" {
			return fmt.Errorf("%w: Message with empty key", ErrInvalidMessage)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown kind %d", ErrInvalidMessage, uint8(m.Kind))
}

// validService checks that s names a plain NF service: not the zero
// value (which doubles as the graph Source), not the graph Sink, and
// not a NIC-port encoding.
func validService(field string, s flowtable.ServiceID) error {
	switch {
	case s == graph.Source:
		return fmt.Errorf("%w: %s must name a service, got source/zero", ErrInvalidMessage, field)
	case s == graph.Sink:
		return fmt.Errorf("%w: %s must name a service, got sink", ErrInvalidMessage, field)
	case s.IsPort():
		return fmt.Errorf("%w: %s must name a service, got %s", ErrInvalidMessage, field, s)
	}
	return nil
}
