"""CBT interoperability with other multicast schemes (spec §10).

The spec defers the "CBT-other" interface ("the CBT authors are
currently working out the details"); this package implements the
natural design the text gestures at: a **bridge** at the boundary of a
CBT cloud and a flood-and-prune cloud that

* appears to the CBT side as an ordinary group member (it joins via
  IGMP, so the shared tree extends to the boundary LAN), and
* appears to the other side as an ordinary sender/receiver (its
  re-originated packets flood-and-prune normally).

Because each side sees a standard member/sender, neither protocol
needs modification — exactly the transparency goal of §10.
"""
