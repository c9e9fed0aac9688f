"""Paper-shaped simulation benchmark (see README.md in this directory)."""
