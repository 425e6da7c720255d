from .readers import load_side_tables, SideTables

__all__ = ["load_side_tables", "SideTables"]
