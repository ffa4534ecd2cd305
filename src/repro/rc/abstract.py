"""Abstract-interpretation domain for the register mapping table.

Mirrors :class:`~repro.rc.mapping_table.MappingTable` over sets: each map
entry abstracts to a *set* of ``(phys, site)`` pairs — every physical
register the entry may name on some path, tagged with the instruction index
of the connect that established it (``None`` for the home location and for
automatic model resets).  The per-model transfer functions (``after_write``,
``after_read``) apply the exact reset semantics of paper section 2.3 to the
abstract entries, and ``join`` is set union over paths.

The site tags exist so the static checker can tell which connect
instructions are ever *used* by a resolved access (dead-connect detection,
rule RC003) without a separate reaching-definitions pass.

The entry encoding is a parameter: :class:`AbstractMap` keeps site-tagged
frozensets, and :class:`MaskMap` drops the sites and keeps each entry as an
int with one bit per physical register, for clients that only ask which
registers an entry may name.  Both share the per-model reset rules; an
encoding supplies only ``home`` and ``single`` (entries are joined with
``|`` and compared with ``==`` in either).
"""

from __future__ import annotations

from repro.rc.models import RCModel

#: One abstract map entry: every (phys, connect-site) the entry may hold.
Entry = frozenset[tuple[int, int | None]]


def home(index: int) -> Entry:
    return frozenset({(index, None)})


class AbstractMap:
    """Abstract read/write maps for one register class.

    Entries are stored sparsely: an index absent from the dict is at its
    home location on every path.
    """

    __slots__ = ("entries", "model", "read", "write")

    #: The entry holding only the home register of an index.
    home = staticmethod(home)

    @staticmethod
    def single(phys: int, site: int | None) -> Entry:
        """The entry a connect to *phys* at *site* establishes."""
        return frozenset({(phys, site)})

    def __init__(self, entries: int, model: RCModel,
                 read: dict[int, Entry] | None = None,
                 write: dict[int, Entry] | None = None) -> None:
        self.entries = entries
        self.model = model
        self.read: dict[int, Entry] = read if read is not None else {}
        self.write: dict[int, Entry] = write if write is not None else {}

    # -- lookups -------------------------------------------------------------

    def read_entry(self, index: int) -> Entry:
        return self.read.get(index) or self.home(index)

    def write_entry(self, index: int) -> Entry:
        return self.write.get(index) or self.home(index)

    def _set(self, which: dict[int, Entry], index: int, value: Entry) -> None:
        if value == self.home(index):
            which.pop(index, None)
        else:
            which[index] = value

    # -- connect instructions ------------------------------------------------

    def connect(self, which: str, index: int, phys: int,
                site: int | None) -> None:
        """Apply one decoded connect update ('read' or 'write')."""
        target = self.read if which == "read" else self.write
        self._set(target, index, self.single(phys, site))

    # -- automatic resets (paper section 2.3) --------------------------------

    def after_write(self, index: int) -> None:
        model = self.model
        if model is RCModel.NO_RESET:
            return
        if model in (RCModel.WRITE_RESET, RCModel.READ_RESET):
            self.write.pop(index, None)
        elif model is RCModel.WRITE_RESET_READ_UPDATE:
            # read := write; stored entries are never home, so a missing
            # write entry means the read entry goes home too.
            entry = self.write.pop(index, None)
            if entry is None:
                self.read.pop(index, None)
            else:
                self.read[index] = entry
        else:  # READ_WRITE_RESET
            self.read.pop(index, None)
            self.write.pop(index, None)

    def after_read(self, index: int) -> None:
        if self.model.resets_read_map_on_read:
            self.read.pop(index, None)

    def reset_home(self) -> None:
        """CALL/RET semantics (section 4.1): every entry back to home."""
        self.read.clear()
        self.write.clear()

    # -- lattice operations --------------------------------------------------

    def copy(self) -> "AbstractMap":
        return type(self)(self.entries, self.model,
                          read=dict(self.read), write=dict(self.write))

    def join(self, other: "AbstractMap") -> "AbstractMap":
        """Union each entry's possibilities (may-analysis path merge)."""
        for which, theirs in ((self.read, other.read),
                              (self.write, other.write)):
            if which == theirs:
                continue
            for index in which.keys() | theirs.keys():
                a = which.get(index) or self.home(index)
                b = theirs.get(index) or self.home(index)
                self._set(which, index, a | b)
        return self

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.entries == other.entries and self.model is other.model
                and self.read == other.read and self.write == other.write)

    def physical(self, entry) -> list[int]:
        """The physical registers *entry* may name, ascending."""
        return sorted(p for p, _ in entry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        def show(which: dict) -> str:
            parts = []
            for i in sorted(which):
                alts = "|".join(f"p{p}" for p in self.physical(which[i]))
                parts.append(f"{i}->{alts}")
            return " ".join(parts) or "home"

        return (f"<{type(self).__name__} r[{show(self.read)}] "
                f"w[{show(self.write)}]>")


class MaskMap(AbstractMap):
    """Site-free :class:`AbstractMap`: an entry is an int with bit *p* set
    for every physical register *p* it may name, so joins and comparisons
    are integer ``|`` and ``==``."""

    __slots__ = ()

    @staticmethod
    def home(index: int) -> int:
        return 1 << index

    @staticmethod
    def single(phys: int, site: int | None) -> int:
        return 1 << phys

    def physical(self, entry: int) -> list[int]:
        return [p for p in range(entry.bit_length()) if entry >> p & 1]
