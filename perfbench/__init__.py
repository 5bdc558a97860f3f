"""End-to-end, layer-attributed benchmark (see ``README.md``)."""
