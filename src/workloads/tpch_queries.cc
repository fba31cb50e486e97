#include "workloads/tpch.h"

namespace taurus {

/// The 22 TPC-H queries in this engine's dialect. Structure follows the
/// official queries with the standard validation parameters; the only
/// systematic adaptations are (a) Q15's revenue view expressed as a CTE
/// and (b) a few numeric thresholds rescaled so small scale factors keep
/// non-trivial result sizes (noted inline).
const std::vector<std::string>& TpchQueries() {
  static const std::vector<std::string>* kQueries =
      new std::vector<std::string>{
          // Q1: pricing summary report.
          R"(SELECT l_returnflag, l_linestatus,
  SUM(l_quantity) AS sum_qty,
  SUM(l_extendedprice) AS sum_base_price,
  SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
  SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
  AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price,
  AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL 90 DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus)",

          // Q2: minimum cost supplier.
          R"(SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address,
  s_phone, s_comment
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND p_size = 15 AND p_type LIKE '%BRASS'
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND ps_supplycost = (
    SELECT MIN(ps_supplycost)
    FROM partsupp, supplier, nation, region
    WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
      AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      AND r_name = 'EUROPE')
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100)",

          // Q3: shipping priority.
          R"(SELECT l_orderkey,
  SUM(l_extendedprice * (1 - l_discount)) AS revenue,
  o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15'
  AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10)",

          // Q4: order priority checking (the paper's Listing 2).
          R"(SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= DATE '1995-01-01'
  AND o_orderdate < DATE '1995-01-01' + INTERVAL '3' MONTH
  AND EXISTS (SELECT * FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority)",

          // Q5: local supplier volume.
          R"(SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA' AND o_orderdate >= DATE '1994-01-01'
  AND o_orderdate < DATE '1994-01-01' + INTERVAL 1 YEAR
GROUP BY n_name
ORDER BY revenue DESC)",

          // Q6: forecasting revenue change.
          R"(SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01'
  AND l_shipdate < DATE '1994-01-01' + INTERVAL 1 YEAR
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24)",

          // Q7: volume shipping.
          R"(SELECT supp_nation, cust_nation, l_year, SUM(volume) AS revenue
FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
        EXTRACT(year FROM l_shipdate) AS l_year,
        l_extendedprice * (1 - l_discount) AS volume
      FROM supplier, lineitem, orders, customer, nation n1, nation n2
      WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
        AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
        AND c_nationkey = n2.n_nationkey
        AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
          OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
        AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31')
     shipping
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year)",

          // Q8: national market share.
          R"(SELECT o_year,
  SUM(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) / SUM(volume)
    AS mkt_share
FROM (SELECT EXTRACT(year FROM o_orderdate) AS o_year,
        l_extendedprice * (1 - l_discount) AS volume,
        n2.n_name AS nation
      FROM part, supplier, lineitem, orders, customer,
           nation n1, nation n2, region
      WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
        AND l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
        AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey
        AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
        AND p_type = 'ECONOMY ANODIZED STEEL') all_nations
GROUP BY o_year
ORDER BY o_year)",

          // Q9: product type profit measure.
          R"(SELECT nation, o_year, SUM(amount) AS sum_profit
FROM (SELECT n_name AS nation,
        EXTRACT(year FROM o_orderdate) AS o_year,
        l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity
          AS amount
      FROM part, supplier, lineitem, partsupp, orders, nation
      WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
        AND ps_partkey = l_partkey AND p_partkey = l_partkey
        AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
        AND p_name LIKE '%green%') profit
GROUP BY nation, o_year
ORDER BY nation, o_year DESC)",

          // Q10: returned item reporting.
          R"(SELECT c_custkey, c_name,
  SUM(l_extendedprice * (1 - l_discount)) AS revenue,
  c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1993-10-01'
  AND o_orderdate < DATE '1993-10-01' + INTERVAL 3 MONTH
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC
LIMIT 20)",

          // Q11: important stock identification (fraction rescaled for the
          // smaller scale factor).
          R"(SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value_
FROM partsupp, supplier, nation
WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
  AND n_name = 'GERMANY'
GROUP BY ps_partkey
HAVING SUM(ps_supplycost * ps_availqty) > (
  SELECT SUM(ps_supplycost * ps_availqty) * 0.005
  FROM partsupp, supplier, nation
  WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
    AND n_name = 'GERMANY')
ORDER BY value_ DESC)",

          // Q12: shipping modes and order priority.
          R"(SELECT l_shipmode,
  SUM(CASE WHEN o_orderpriority = '1-URGENT'
            OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END)
    AS high_line_count,
  SUM(CASE WHEN o_orderpriority <> '1-URGENT'
           AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END)
    AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '1994-01-01'
  AND l_receiptdate < DATE '1994-01-01' + INTERVAL 1 YEAR
GROUP BY l_shipmode
ORDER BY l_shipmode)",

          // Q13: customer distribution (left outer join + two groupings —
          // the query where Orca's hash-join choice gave 2X, Section 6.1).
          R"(SELECT c_count, COUNT(*) AS custdist
FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count
      FROM customer LEFT OUTER JOIN orders
        ON c_custkey = o_custkey
           AND o_comment NOT LIKE '%special%requests%'
      GROUP BY c_custkey) c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC)",

          // Q14: promotion effect.
          R"(SELECT 100.00 *
  SUM(CASE WHEN p_type LIKE 'PROMO%'
           THEN l_extendedprice * (1 - l_discount) ELSE 0 END) /
  SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey AND l_shipdate >= DATE '1995-09-01'
  AND l_shipdate < DATE '1995-09-01' + INTERVAL 1 MONTH)",

          // Q15: top supplier (view replaced by a CTE).
          R"(WITH revenue AS (
  SELECT l_suppkey AS supplier_no,
         SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01'
    AND l_shipdate < DATE '1996-01-01' + INTERVAL 3 MONTH
  GROUP BY l_suppkey)
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier, revenue
WHERE s_suppkey = supplier_no
  AND total_revenue = (SELECT MAX(total_revenue) FROM revenue)
ORDER BY s_suppkey)",

          // Q16: parts/supplier relationship (paper's Listing 8).
          R"(SELECT p_brand, p_type, p_size,
  COUNT(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#34'
  AND p_type NOT LIKE 'LARGE BRUSHED%'
  AND p_size IN (48, 19, 12, 4, 41, 7, 21, 39)
  AND ps_suppkey NOT IN (
    SELECT s_suppkey FROM supplier
    WHERE s_comment LIKE '%Customer%Complaints%')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size)",

          // Q17: small-quantity-order revenue (paper's Listing 5).
          R"(SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23'
  AND p_container = 'MED BOX'
  AND l_quantity < (SELECT 0.2 * AVG(l_quantity)
                    FROM lineitem
                    WHERE l_partkey = p_partkey))",

          // Q18: large volume customer (threshold rescaled).
          R"(SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
  SUM(l_quantity)
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                     GROUP BY l_orderkey
                     HAVING SUM(l_quantity) > 250)
  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100)",

          // Q19: discounted revenue — the OR-refactoring showcase: the
          // join predicate repeats inside every OR branch.
          R"(SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE (p_partkey = l_partkey AND p_brand = 'Brand#12'
       AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
       AND l_quantity >= 1 AND l_quantity <= 11
       AND p_size BETWEEN 1 AND 5
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
   OR (p_partkey = l_partkey AND p_brand = 'Brand#23'
       AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
       AND l_quantity >= 10 AND l_quantity <= 20
       AND p_size BETWEEN 1 AND 10
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
   OR (p_partkey = l_partkey AND p_brand = 'Brand#34'
       AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
       AND l_quantity >= 20 AND l_quantity <= 30
       AND p_size BETWEEN 1 AND 15
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON'))",

          // Q20: potential part promotion (nested IN + correlated scalar).
          R"(SELECT s_name, s_address
FROM supplier, nation
WHERE s_suppkey IN (
    SELECT ps_suppkey FROM partsupp
    WHERE ps_partkey IN (SELECT p_partkey FROM part
                         WHERE p_name LIKE 'forest%')
      AND ps_availqty > (SELECT 0.5 * SUM(l_quantity)
                         FROM lineitem
                         WHERE l_partkey = ps_partkey
                           AND l_suppkey = ps_suppkey
                           AND l_shipdate >= DATE '1994-01-01'
                           AND l_shipdate < DATE '1994-01-01'
                                             + INTERVAL 1 YEAR))
  AND s_nationkey = n_nationkey AND n_name = 'CANADA'
ORDER BY s_name)",

          // Q21: suppliers who kept orders waiting (2.6X in the paper).
          R"(SELECT s_name, COUNT(*) AS numwait
FROM supplier, lineitem l1, orders, nation
WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey
  AND o_orderstatus = 'F' AND l1.l_receiptdate > l1.l_commitdate
  AND EXISTS (SELECT * FROM lineitem l2
              WHERE l2.l_orderkey = l1.l_orderkey
                AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT * FROM lineitem l3
                  WHERE l3.l_orderkey = l1.l_orderkey
                    AND l3.l_suppkey <> l1.l_suppkey
                    AND l3.l_receiptdate > l3.l_commitdate)
  AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100)",

          // Q22: global sales opportunity.
          R"(SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal
FROM (SELECT SUBSTRING(c_phone, 1, 2) AS cntrycode, c_acctbal
      FROM customer
      WHERE SUBSTRING(c_phone, 1, 2) IN
              ('13', '31', '23', '29', '30', '18', '17')
        AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer
                         WHERE c_acctbal > 0.00
                           AND SUBSTRING(c_phone, 1, 2) IN
                                 ('13', '31', '23', '29', '30', '18', '17'))
        AND NOT EXISTS (SELECT * FROM orders
                        WHERE o_custkey = c_custkey)) custsale
GROUP BY cntrycode
ORDER BY cntrycode)"};
  return *kQueries;
}

std::string NationJoinGraphQuery(NationJoinShape shape, int n) {
  std::string from;
  std::string where;
  auto join = [&](int a, int b) {
    if (!where.empty()) where += " AND ";
    where += "t" + std::to_string(a) + ".n_nationkey = t" +
             std::to_string(b) + ".n_nationkey";
  };
  for (int i = 0; i < n; ++i) {
    if (i > 0) from += ", ";
    from += "nation t" + std::to_string(i);
    if (i == 0) continue;
    join(shape == NationJoinShape::kStar ? 0 : i - 1, i);
  }
  if (shape == NationJoinShape::kCycle && n > 2) join(n - 1, 0);
  return "SELECT count(*) FROM " + from + " WHERE " + where;
}

}  // namespace taurus
