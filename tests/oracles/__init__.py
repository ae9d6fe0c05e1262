"""Reference implementations that production fast paths are tested against."""
