"""The built-in litmus corpus, with expected statuses.

Each entry records

  * the ``.litmus`` source (herdtools syntax, as in section 6),
  * ``architected``: the architectural-envelope status the model must
    produce ("Allowed" / "Forbidden"), from the published POWER models
    (Sarkar et al. PLDI 2011/2012 and this paper's section 2), and
  * ``observed``: whether the outcome has been observed on POWER hardware
    (G5/6/7/8) in the published experiments.  ``observed`` implies the
    model must allow it (soundness, section 7); the converse need not hold
    (e.g. the LB family is architecturally allowed but unobserved).

This corpus plays the role of the paper's 2175-test validation suite: the
full diy-generated suite is not redistributable, so the canonical named
shapes and the paper's own examples are used, each exercising a distinct
mechanism of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .parser import parse_litmus
from .test import LitmusTest


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str
    architected: str  # "Allowed" | "Forbidden"
    observed: bool  # seen on some POWER implementation
    family: str
    note: str = ""

    def parse(self) -> LitmusTest:
        return parse_litmus(self.source)


_CORPUS: List[CorpusEntry] = []


def _add(name, family, architected, observed, source, note=""):
    _CORPUS.append(
        CorpusEntry(
            name=name,
            source=source.strip() + "\n",
            architected=architected,
            observed=observed,
            family=family,
            note=note,
        )
    )


# ----------------------------------------------------------------------
# Message passing (MP) family -- includes the paper's section 2 examples
# ----------------------------------------------------------------------

_add("MP", "MP", "Allowed", True, """
POWER MP
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 stw r8,0(r2) | lwz r4,0(r1) ;
exists (1:r5=1 /\\ 1:r4=0)
""")

_add("MP+syncs", "MP", "Forbidden", False, """
POWER MP+syncs
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 sync         | sync         ;
 stw r8,0(r2) | lwz r4,0(r1) ;
exists (1:r5=1 /\\ 1:r4=0)
""")

_add("MP+lwsyncs", "MP", "Forbidden", False, """
POWER MP+lwsyncs
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 lwsync       | lwsync       ;
 stw r8,0(r2) | lwz r4,0(r1) ;
exists (1:r5=1 /\\ 1:r4=0)
""")

_add("MP+sync+addr", "MP", "Forbidden", False, """
POWER MP+sync+addr
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1             ;
 stw r7,0(r1) | lwz r5,0(r2)   ;
 sync         | xor r6,r5,r5   ;
 stw r8,0(r2) | lwzx r4,r6,r1  ;
exists (1:r5=1 /\\ 1:r4=0)
""")

_add("MP+lwsync+addr", "MP", "Forbidden", False, """
POWER MP+lwsync+addr
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1             ;
 stw r7,0(r1) | lwz r5,0(r2)   ;
 lwsync       | xor r6,r5,r5   ;
 stw r8,0(r2) | lwzx r4,r6,r1  ;
exists (1:r5=1 /\\ 1:r4=0)
""")

_add("MP+sync+ctrl", "MP", "Allowed", True, """
POWER MP+sync+ctrl
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y; 1:r7=1;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 sync         | cmpw r5,r7   ;
 stw r8,0(r2) | beq L        ;
              | L:           ;
              | lwz r4,0(r1) ;
exists (1:r5=1 /\\ 1:r4=0)
""", note="section 2.1.1: speculative satisfaction past an unresolved branch")

_add("MP+sync+ctrlisync", "MP", "Forbidden", False, """
POWER MP+sync+ctrlisync
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y; 1:r7=1;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 sync         | cmpw r5,r7   ;
 stw r8,0(r2) | beq L        ;
              | L:           ;
              | isync        ;
              | lwz r4,0(r1) ;
exists (1:r5=1 /\\ 1:r4=0)
""")

_add("MP+sync+rs", "MP", "Allowed", True, """
POWER MP+sync+rs
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 sync         | mr r6,r5     ;
 stw r8,0(r2) | lwz r5,0(r1) ;
exists (1:r6=1 /\\ 1:r5=0)
""", note="section 2.1.2: register shadowing")

_add("MP+sync+addr-cr", "MP", "Allowed", True, """
POWER MP+sync+addr-cr
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1              ;
 stw r7,0(r1) | lwz r5,0(r2)    ;
 sync         | mtocrf cr3,r5   ;
 stw r8,0(r2) | mfocrf r6,cr4   ;
              | xor r7,r6,r6    ;
              | lwzx r8,r1,r7   ;
exists (1:r5=1 /\\ 1:r8=0)
""", note="section 2.1.4: no dependency through distinct CR fields")

_add("MP+sync+addr-cr-same", "MP", "Forbidden", False, """
POWER MP+sync+addr-cr-same
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1              ;
 stw r7,0(r1) | lwz r5,0(r2)    ;
 sync         | mtocrf cr3,r5   ;
 stw r8,0(r2) | mfocrf r6,cr3   ;
              | xor r7,r6,r6    ;
              | lwzx r8,r1,r7   ;
exists (1:r5=1 /\\ 1:r8=0)
""", note="control for MP+sync+addr-cr: same CR field carries the dependency")

_add("PPOCA", "MP", "Allowed", True, """
POWER PPOCA
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y; 1:r3=z; 1:r7=1;
x=0; y=0; z=0;
}
 P0           | P1            ;
 stw r7,0(r1) | lwz r5,0(r2)  ;
 sync         | cmpw r5,r7    ;
 stw r8,0(r2) | beq L         ;
              | L:            ;
              | stw r7,0(r3)  ;
              | lwz r6,0(r3)  ;
              | xor r6,r6,r6  ;
              | lwzx r4,r6,r1 ;
exists (1:r5=1 /\\ 1:r4=0)
""", note="section 2.1.5: forwarding from an uncommitted speculative store")

_add("PPOAA", "MP", "Forbidden", False, """
POWER PPOAA
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y; 1:r3=z; 1:r7=1;
x=0; y=0; z=0;
}
 P0           | P1            ;
 stw r7,0(r1) | lwz r5,0(r2)  ;
 sync         | xor r6,r5,r5  ;
 stw r8,0(r2) | stwx r7,r6,r3 ;
              | lwz r6,0(r3)  ;
              | xor r6,r6,r6  ;
              | lwzx r4,r6,r1 ;
exists (1:r5=1 /\\ 1:r4=0)
""")

# ----------------------------------------------------------------------
# Store buffering (SB)
# ----------------------------------------------------------------------

_add("SB", "SB", "Allowed", True, """
POWER SB
{
0:r1=x; 0:r2=y; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r7,0(r2) ;
 lwz r5,0(r2) | lwz r5,0(r1) ;
exists (0:r5=0 /\\ 1:r5=0)
""")

_add("SB+syncs", "SB", "Forbidden", False, """
POWER SB+syncs
{
0:r1=x; 0:r2=y; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r7,0(r2) ;
 sync         | sync         ;
 lwz r5,0(r2) | lwz r5,0(r1) ;
exists (0:r5=0 /\\ 1:r5=0)
""")

_add("SB+lwsyncs", "SB", "Allowed", True, """
POWER SB+lwsyncs
{
0:r1=x; 0:r2=y; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r7,0(r2) ;
 lwsync       | lwsync       ;
 lwz r5,0(r2) | lwz r5,0(r1) ;
exists (0:r5=0 /\\ 1:r5=0)
""", note="lwsync does not order store-load")

# ----------------------------------------------------------------------
# Load buffering (LB) -- architecturally allowed, unobserved on POWER
# ----------------------------------------------------------------------

_add("LB", "LB", "Allowed", False, """
POWER LB
{
0:r1=x; 0:r2=y; 0:r9=1;
1:r1=x; 1:r2=y; 1:r9=1;
x=0; y=0;
}
 P0           | P1           ;
 lwz r5,0(r1) | lwz r6,0(r2) ;
 stw r9,0(r2) | stw r9,0(r1) ;
exists (0:r5=1 /\\ 1:r6=1)
""", note="architecturally allowed; not observable on POWER servers")

_add("LB+addrs", "LB", "Forbidden", False, """
POWER LB+addrs
{
0:r1=x; 0:r2=y; 0:r9=1;
1:r1=x; 1:r2=y; 1:r9=1;
x=0; y=0;
}
 P0            | P1            ;
 lwz r5,0(r1)  | lwz r6,0(r2)  ;
 xor r4,r5,r5  | xor r4,r6,r6  ;
 stwx r9,r4,r2 | stwx r9,r4,r1 ;
exists (0:r5=1 /\\ 1:r6=1)
""")

_add("LB+datas", "LB", "Forbidden", False, """
POWER LB+datas
{
0:r1=x; 0:r2=y;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1           ;
 lwz r5,0(r1) | lwz r6,0(r2) ;
 stw r5,0(r2) | stw r6,0(r1) ;
exists (0:r5=1 /\\ 1:r6=1)
""")

_add("LB+ctrls", "LB", "Forbidden", False, """
POWER LB+ctrls
{
0:r1=x; 0:r2=y; 0:r9=1;
1:r1=x; 1:r2=y; 1:r9=1;
x=0; y=0;
}
 P0           | P1           ;
 lwz r5,0(r1) | lwz r6,0(r2) ;
 cmpw r5,r9   | cmpw r6,r9   ;
 beq L0       | beq L1       ;
 L0:          | L1:          ;
 stw r9,0(r2) | stw r9,0(r1) ;
exists (0:r5=1 /\\ 1:r6=1)
""", note="control dependencies to stores are respected")

_add("LB+datas+WW", "LB", "Allowed", False, """
POWER LB+datas+WW
{
0:r1=x; 0:r2=y; 0:r3=z; 0:r9=1;
1:r1=x; 1:r2=y; 1:r4=w; 1:r9=1;
x=0; y=0; z=0; w=0;
}
 P0           | P1           ;
 lwz r5,0(r1) | lwz r6,0(r2) ;
 stw r5,0(r3) | stw r6,0(r4) ;
 stw r9,0(r2) | stw r9,0(r1) ;
exists (0:r5=1 /\\ 1:r6=1)
""", note="section 2.1.6: middle-write addresses known before data resolves")

_add("LB+addrs+WW", "LB", "Forbidden", False, """
POWER LB+addrs+WW
{
0:r1=x; 0:r2=y; 0:r3=z; 0:r9=1;
1:r1=x; 1:r2=y; 1:r4=w; 1:r9=1;
x=0; y=0; z=0; w=0;
}
 P0             | P1             ;
 lwz r5,0(r1)   | lwz r6,0(r2)   ;
 xor r10,r5,r5  | xor r10,r6,r6  ;
 stwx r9,r10,r3 | stwx r9,r10,r4 ;
 stw r9,0(r2)   | stw r9,0(r1)   ;
exists (0:r5=1 /\\ 1:r6=1)
""", note="section 2.1.6 control: middle-write addresses depend on the loads")

# ----------------------------------------------------------------------
# R and S shapes (one memory-final condition each)
# ----------------------------------------------------------------------

_add("R", "R", "Allowed", True, """
POWER R
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r2=y; 1:r1=x; 1:r8=2;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r8,0(r2) ;
 stw r8,0(r2) | lwz r5,0(r1) ;
exists (y=2 /\\ 1:r5=0)
""")

_add("R+syncs", "R", "Forbidden", False, """
POWER R+syncs
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r2=y; 1:r1=x; 1:r8=2;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r8,0(r2) ;
 sync         | sync         ;
 stw r8,0(r2) | lwz r5,0(r1) ;
exists (y=2 /\\ 1:r5=0)
""")

_add("S", "S", "Allowed", True, """
POWER S
{
0:r1=x; 0:r2=y; 0:r7=2; 0:r8=1;
1:r1=x; 1:r2=y; 1:r7=1;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 stw r8,0(r2) | stw r7,0(r1) ;
exists (1:r5=1 /\\ x=2)
""")

_add("S+sync+addr", "S", "Forbidden", False, """
POWER S+sync+addr
{
0:r1=x; 0:r2=y; 0:r7=2; 0:r8=1;
1:r1=x; 1:r2=y; 1:r7=1;
x=0; y=0;
}
 P0           | P1            ;
 stw r7,0(r1) | lwz r5,0(r2)  ;
 sync         | xor r6,r5,r5  ;
 stw r8,0(r2) | stwx r7,r6,r1 ;
exists (1:r5=1 /\\ x=2)
""")

# ----------------------------------------------------------------------
# 2+2W -- purely memory-final conditions (coherence linearisation)
# ----------------------------------------------------------------------

_add("2+2W", "2+2W", "Allowed", True, """
POWER 2+2W
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=2;
1:r1=x; 1:r2=y; 1:r7=1; 1:r8=2;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r7,0(r2) ;
 stw r8,0(r2) | stw r8,0(r1) ;
exists (x=1 /\\ y=1)
""")

_add("2+2W+syncs", "2+2W", "Forbidden", False, """
POWER 2+2W+syncs
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=2;
1:r1=x; 1:r2=y; 1:r7=1; 1:r8=2;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r7,0(r2) ;
 sync         | sync         ;
 stw r8,0(r2) | stw r8,0(r1) ;
exists (x=1 /\\ y=1)
""")

_add("2+2W+lwsyncs", "2+2W", "Forbidden", False, """
POWER 2+2W+lwsyncs
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=2;
1:r1=x; 1:r2=y; 1:r7=1; 1:r8=2;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r7,0(r2) ;
 lwsync       | lwsync       ;
 stw r8,0(r2) | stw r8,0(r1) ;
exists (x=1 /\\ y=1)
""")

# ----------------------------------------------------------------------
# Coherence shapes
# ----------------------------------------------------------------------

_add("CoRR", "coherence", "Forbidden", False, """
POWER CoRR
{
0:r1=x; 0:r7=1;
1:r1=x;
x=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r1) ;
              | lwz r6,0(r1) ;
exists (1:r5=1 /\\ 1:r6=0)
""")

_add("CoWW", "coherence", "Forbidden", False, """
POWER CoWW
{
0:r1=x; 0:r7=1; 0:r8=2;
x=0;
}
 P0           ;
 stw r7,0(r1) ;
 stw r8,0(r1) ;
exists (x=1)
""")

_add("CoWR", "coherence", "Forbidden", False, """
POWER CoWR
{
0:r1=x; 0:r7=1;
1:r1=x; 1:r7=2;
x=0;
}
 P0           | P1           ;
 stw r7,0(r1) | stw r7,0(r1) ;
 lwz r5,0(r1) |              ;
exists (0:r5=2 /\\ x=1)
""")

_add("CoRW1", "coherence", "Forbidden", False, """
POWER CoRW1
{
0:r1=x; 0:r7=1;
x=0;
}
 P0           ;
 lwz r5,0(r1) ;
 stw r7,0(r1) ;
exists (0:r5=1)
""", note="a load must not read from a po-later store")

# ----------------------------------------------------------------------
# WRC / IRIW / RWC / ISA2 (3-4 threads, cumulativity)
# ----------------------------------------------------------------------

_add("WRC", "WRC", "Allowed", True, """
POWER WRC
{
0:r1=x; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y;
x=0; y=0;
}
 P0           | P1           | P2           ;
 stw r7,0(r1) | lwz r5,0(r1) | lwz r6,0(r2) ;
              | stw r7,0(r2) | lwz r8,0(r1) ;
exists (1:r5=1 /\\ 2:r6=1 /\\ 2:r8=0)
""")

_add("WRC+addrs", "WRC", "Allowed", True, """
POWER WRC+addrs
{
0:r1=x; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y;
x=0; y=0;
}
 P0           | P1             | P2             ;
 stw r7,0(r1) | lwz r5,0(r1)   | lwz r6,0(r2)   ;
              | xor r4,r5,r5   | xor r4,r6,r6   ;
              | stwx r7,r4,r2  | lwzx r8,r4,r1  ;
exists (1:r5=1 /\\ 2:r6=1 /\\ 2:r8=0)
""", note="non-multi-copy-atomic storage: dependencies alone do not forbid WRC")

_add("WRC+sync+addr", "WRC", "Forbidden", False, """
POWER WRC+sync+addr
{
0:r1=x; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y;
x=0; y=0;
}
 P0           | P1            | P2             ;
 stw r7,0(r1) | lwz r5,0(r1)  | lwz r6,0(r2)   ;
              | sync          | xor r4,r6,r6   ;
              | stw r7,0(r2)  | lwzx r8,r4,r1  ;
exists (1:r5=1 /\\ 2:r6=1 /\\ 2:r8=0)
""", note="A-cumulativity of sync")

_add("WRC+lwsync+addr", "WRC", "Forbidden", False, """
POWER WRC+lwsync+addr
{
0:r1=x; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y;
x=0; y=0;
}
 P0           | P1            | P2             ;
 stw r7,0(r1) | lwz r5,0(r1)  | lwz r6,0(r2)   ;
              | lwsync        | xor r4,r6,r6   ;
              | stw r7,0(r2)  | lwzx r8,r4,r1  ;
exists (1:r5=1 /\\ 2:r6=1 /\\ 2:r8=0)
""", note="A-cumulativity of lwsync")

_add("IRIW", "IRIW", "Allowed", True, """
POWER IRIW
{
0:r1=x; 0:r7=1;
1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y;
3:r1=x; 3:r2=y;
x=0; y=0;
}
 P0           | P1           | P2           | P3           ;
 stw r7,0(r1) | stw r7,0(r2) | lwz r5,0(r1) | lwz r5,0(r2) ;
              |              | lwz r6,0(r2) | lwz r6,0(r1) ;
exists (2:r5=1 /\\ 2:r6=0 /\\ 3:r5=1 /\\ 3:r6=0)
""")

_add("IRIW+addrs", "IRIW", "Allowed", True, """
POWER IRIW+addrs
{
0:r1=x; 0:r7=1;
1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y;
3:r1=x; 3:r2=y;
x=0; y=0;
}
 P0           | P1           | P2             | P3             ;
 stw r7,0(r1) | stw r7,0(r2) | lwz r5,0(r1)   | lwz r5,0(r2)   ;
              |              | xor r4,r5,r5   | xor r4,r5,r5   ;
              |              | lwzx r6,r4,r2  | lwzx r6,r4,r1  ;
exists (2:r5=1 /\\ 2:r6=0 /\\ 3:r5=1 /\\ 3:r6=0)
""")

_add("IRIW+syncs", "IRIW", "Forbidden", False, """
POWER IRIW+syncs
{
0:r1=x; 0:r7=1;
1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y;
3:r1=x; 3:r2=y;
x=0; y=0;
}
 P0           | P1           | P2           | P3           ;
 stw r7,0(r1) | stw r7,0(r2) | lwz r5,0(r1) | lwz r5,0(r2) ;
              |              | sync         | sync         ;
              |              | lwz r6,0(r2) | lwz r6,0(r1) ;
exists (2:r5=1 /\\ 2:r6=0 /\\ 3:r5=1 /\\ 3:r6=0)
""")

_add("RWC+syncs", "RWC", "Forbidden", False, """
POWER RWC+syncs
{
0:r1=x; 0:r7=1;
1:r1=x; 1:r2=y; 1:r7=1;
2:r1=x; 2:r2=y; 2:r7=1;
x=0; y=0;
}
 P0           | P1           | P2           ;
 stw r7,0(r1) | lwz r5,0(r1) | stw r7,0(r2) ;
              | sync         | sync         ;
              | lwz r6,0(r2) | lwz r8,0(r1) ;
exists (1:r5=1 /\\ 1:r6=0 /\\ 2:r8=0)
""")

_add("ISA2", "ISA2", "Allowed", True, """
POWER ISA2
{
0:r1=x; 0:r2=y; 0:r7=1;
1:r2=y; 1:r3=z; 1:r7=1;
2:r1=x; 2:r3=z;
x=0; y=0; z=0;
}
 P0           | P1           | P2           ;
 stw r7,0(r1) | lwz r5,0(r2) | lwz r6,0(r3) ;
 stw r7,0(r2) | stw r7,0(r3) | lwz r8,0(r1) ;
exists (1:r5=1 /\\ 2:r6=1 /\\ 2:r8=0)
""")

_add("ISA2+sync+data+addr", "ISA2", "Forbidden", False, """
POWER ISA2+sync+data+addr
{
0:r1=x; 0:r2=y; 0:r7=1;
1:r2=y; 1:r3=z;
2:r1=x; 2:r3=z;
x=0; y=0; z=0;
}
 P0           | P1            | P2             ;
 stw r7,0(r1) | lwz r5,0(r2)  | lwz r6,0(r3)   ;
 sync         | stw r5,0(r3)  | xor r4,r6,r6   ;
 stw r7,0(r2) |               | lwzx r8,r4,r1  ;
exists (1:r5=1 /\\ 2:r6=1 /\\ 2:r8=0)
""", note="B-cumulativity of sync through a data dependency")

# ----------------------------------------------------------------------
# Load-reserve / store-conditional
# ----------------------------------------------------------------------

_add("ATOM-base", "atomic", "Allowed", True, """
POWER ATOM-base
{
0:r1=x; 0:r7=1;
x=0;
}
 P0              ;
 lwarx r5,r0,r1  ;
 stwcx. r7,r0,r1 ;
 mfcr r6         ;
exists (0:r5=0 /\\ x=1 /\\ 0:r6=0x20000000)
""", note="uncontended reservation succeeds")

_add("ATOM-intervene", "atomic", "Forbidden", False, """
POWER ATOM-intervene
{
0:r1=x; 0:r7=1;
1:r1=x; 1:r7=2;
x=0;
}
 P0              | P1           ;
 lwarx r5,r0,r1  | stw r7,0(r1) ;
 stwcx. r7,r0,r1 |              ;
exists (0:r5=0 /\\ x=1)
""", note="no write may intervene between the paired lwarx and stwcx.")


def corpus() -> List[CorpusEntry]:
    return list(_CORPUS)


def by_name(name: str) -> CorpusEntry:
    for entry in _CORPUS:
        if entry.name == name:
            return entry
    raise KeyError(name)


def families() -> Dict[str, List[CorpusEntry]]:
    grouped: Dict[str, List[CorpusEntry]] = {}
    for entry in _CORPUS:
        grouped.setdefault(entry.family, []).append(entry)
    return grouped


# ----------------------------------------------------------------------
# Doubleword variants (exercise the mixed-size machinery end to end)
# ----------------------------------------------------------------------

_add("MP+syncs+dword", "MP", "Forbidden", False, """
POWER MP+syncs+dword
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1          ;
 std r7,0(r1) | ld r5,0(r2) ;
 sync         | sync        ;
 std r8,0(r2) | ld r4,0(r1) ;
exists (1:r5=1 /\\ 1:r4=0)
""", note="doubleword cells: message passing with syncs stays forbidden")

_add("MP+dword", "MP", "Allowed", True, """
POWER MP+dword
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1          ;
 std r7,0(r1) | ld r5,0(r2) ;
 std r8,0(r2) | ld r4,0(r1) ;
exists (1:r5=1 /\\ 1:r4=0)
""")

_add("CoRR+dword", "coherence", "Forbidden", False, """
POWER CoRR+dword
{
0:r1=x; 0:r7=1;
1:r1=x;
x=0;
}
 P0           | P1          ;
 std r7,0(r1) | ld r5,0(r1) ;
              | ld r6,0(r1) ;
exists (1:r5=1 /\\ 1:r6=0)
""")

# A mixed-size coherence shape: a word store into a doubleword cell must be
# read back coherently by a doubleword load on another thread.
_add("MIXED-wr-dw", "coherence", "Forbidden", False, """
POWER MIXED-wr-dw
{
0:r1=x; 0:r7=1;
1:r1=x;
x=0;
}
 P0           | P1          ;
 stw r7,4(r1) | ld r5,0(r1) ;
 stw r7,4(r1) | ld r6,0(r1) ;
exists (1:r5=1 /\\ 1:r6=0)
""", note="overlapping word writes inside a doubleword cell respect CoRR")
