from repro.store import Store as ArtifactStore  # noqa: F401 - perfbench traces this name
